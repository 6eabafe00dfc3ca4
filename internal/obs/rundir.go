package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
)

// This file implements durable run artifacts. WriteRunDir is the one
// writer every tool and the serving plane call; a run directory holds
//
//	manifest.json   full config, seed, git SHA, go version
//	epochs.jsonl    one EpochMetrics row per epoch
//	metrics.prom    the final registry snapshot in Prometheus text format
//	plan.json       the executed-plan profile, for profiled runs
//
// Two runs become diffable by diffing their directories; the manifest
// makes every number attributable to an exact source revision.

// Manifest identifies one run: what ran, from which source revision, with
// which configuration.
type Manifest struct {
	// Tool is the producing binary ("corgitrain", "corgibench", ...).
	Tool string `json:"tool"`
	// Run labels the run (workload/model/strategy, free-form).
	Run string `json:"run,omitempty"`
	// GitSHA and GoVersion are filled from build info when left empty.
	GitSHA    string `json:"git_sha"`
	GoVersion string `json:"go_version"`
	// Seed is the run's master random seed.
	Seed int64 `json:"seed"`
	// Config is the full run configuration, marshaled verbatim.
	Config any `json:"config,omitempty"`
	// Args preserves the raw command line.
	Args []string `json:"args,omitempty"`
}

// GitSHA returns the VCS revision recorded in the build info (exact for
// `go build`, "unknown" under `go run` or when built outside a checkout).
// A "+dirty" suffix marks uncommitted modifications.
func GitSHA() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	sha, dirty := "", false
	for _, st := range bi.Settings {
		switch st.Key {
		case "vcs.revision":
			sha = st.Value
		case "vcs.modified":
			dirty = st.Value == "true"
		}
	}
	if sha == "" {
		return "unknown"
	}
	if dirty {
		sha += "+dirty"
	}
	return sha
}

// RunArtifacts is what a run directory holds.
type RunArtifacts struct {
	// Manifest is written as manifest.json, with GitSHA and GoVersion
	// filled from the build when left empty.
	Manifest Manifest
	// Epochs is written as epochs.jsonl, one row per line. No rows leave
	// an empty file.
	Epochs []EpochMetrics
	// Plan, when non-nil, is written as plan.json.
	Plan *PlanStats
	// Metrics is written as metrics.prom: the bytes a final /metrics
	// scrape would have returned.
	Metrics *Registry
}

// WriteRunDir creates dir (and parents) and writes a's artifacts into it.
func WriteRunDir(dir string, a RunArtifacts) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("obs: run dir: %w", err)
	}
	m := a.Manifest
	if m.GitSHA == "" {
		m.GitSHA = GitSHA()
	}
	if m.GoVersion == "" {
		m.GoVersion = runtime.Version()
	}
	indented := func(v any) func(w io.Writer) error {
		return func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(v)
		}
	}
	err := writeFile(filepath.Join(dir, "manifest.json"), indented(m))
	if err == nil {
		err = writeFile(filepath.Join(dir, "epochs.jsonl"), func(w io.Writer) error {
			enc := json.NewEncoder(w)
			for _, row := range a.Epochs {
				if err := enc.Encode(row); err != nil {
					return err
				}
			}
			return nil
		})
	}
	if err == nil && a.Plan != nil {
		err = writeFile(filepath.Join(dir, "plan.json"), indented(a.Plan))
	}
	if err == nil {
		err = writeFile(filepath.Join(dir, "metrics.prom"), a.Metrics.WritePrometheus)
	}
	if err != nil {
		return fmt.Errorf("obs: run dir: %w", err)
	}
	return nil
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
