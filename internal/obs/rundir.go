package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
)

// This file implements durable run artifacts: a run directory holding
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

// RunDir is an open run-artifact directory.
type RunDir struct {
	// Dir is the directory path (created by OpenRunDir).
	Dir string
}

// OpenRunDir creates dir (and parents) and returns the artifact writer.
func OpenRunDir(dir string) (*RunDir, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("obs: run dir: %w", err)
	}
	return &RunDir{Dir: dir}, nil
}

// WriteManifest writes manifest.json, filling GitSHA and GoVersion from
// the build when the caller left them empty.
func (rd *RunDir) WriteManifest(m Manifest) error {
	if rd == nil {
		return nil
	}
	if m.GitSHA == "" {
		m.GitSHA = GitSHA()
	}
	if m.GoVersion == "" {
		m.GoVersion = runtime.Version()
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(rd.Dir, "manifest.json"), append(data, '\n'), 0o644)
}

// WriteEpochs writes the per-epoch breakdown rows as epochs.jsonl, one
// JSON object per line — the same row schema the JSONL trace emits.
func (rd *RunDir) WriteEpochs(rows []EpochMetrics) error {
	if rd == nil {
		return nil
	}
	f, err := os.Create(filepath.Join(rd.Dir, "epochs.jsonl"))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, m := range rows {
		if err := enc.Encode(m); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// WritePlan writes the executed-plan profile as plan.json. A nil plan (the
// run was not profiled) writes nothing.
func (rd *RunDir) WritePlan(p *PlanStats) error {
	if rd == nil || p == nil {
		return nil
	}
	data, err := p.JSON()
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(rd.Dir, "plan.json"), append(data, '\n'), 0o644)
}

// WriteMetrics snapshots the registry into metrics.prom — the same bytes a
// final /metrics scrape would have returned.
func (rd *RunDir) WriteMetrics(r *Registry) error {
	if rd == nil {
		return nil
	}
	f, err := os.Create(filepath.Join(rd.Dir, "metrics.prom"))
	if err != nil {
		return err
	}
	if err := r.WritePrometheus(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
