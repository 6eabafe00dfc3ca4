package core

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"corgipile/internal/data"
	"corgipile/internal/ml"
	"corgipile/internal/obs"
	"corgipile/internal/shuffle"
)

// TestDiagTrackerSequences drives the plateau/divergence detector through
// canonical loss trajectories and checks the verdict after each epoch.
func TestDiagTrackerSequences(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name   string
		losses []float64
		want   []Verdict
	}{
		{
			name:   "converging",
			losses: []float64{1.0, 0.8, 0.6, 0.5},
			want:   []Verdict{VerdictWarmup, VerdictConverging, VerdictConverging, VerdictConverging},
		},
		{
			name:   "plateau after window",
			losses: []float64{1.0, 1.0, 1.0, 1.0},
			want:   []Verdict{VerdictWarmup, VerdictConverging, VerdictConverging, VerdictPlateau},
		},
		{
			name:   "diverging after window",
			losses: []float64{1.0, 1.1, 1.2, 1.3},
			want:   []Verdict{VerdictWarmup, VerdictConverging, VerdictConverging, VerdictDiverging},
		},
		{
			name:   "non-finite loss diverges immediately",
			losses: []float64{nan},
			want:   []Verdict{VerdictDiverging},
		},
		{
			name:   "recovery resets the rise run",
			losses: []float64{1.0, 1.1, 1.2, 0.9, 0.8},
			want:   []Verdict{VerdictWarmup, VerdictConverging, VerdictConverging, VerdictConverging, VerdictConverging},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := &DiagTracker{}
			for i, loss := range tc.losses {
				delta, v := tr.Observe(loss)
				if v != tc.want[i] {
					t.Fatalf("epoch %d (loss %v): verdict %q, want %q", i+1, loss, v, tc.want[i])
				}
				if i == 0 && delta != 0 {
					t.Fatalf("first epoch loss delta %v, want 0", delta)
				}
			}
		})
	}
}

// diagRun trains a small SVM with diagnostics on or off and the given feed
// attached, returning the result.
func diagRun(t *testing.T, ds *data.Dataset, diag bool, feed *obs.RunFeed, reg *obs.Registry) *Result {
	t.Helper()
	src := shuffle.NewMemSource(ds, 50)
	st, err := shuffle.New(shuffle.KindCorgiPile, src, shuffle.Options{
		Seed: 7, BufferFraction: 0.1, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(RunConfig{
		Strategy:  st,
		Model:     ml.SVM{},
		Opt:       ml.NewSGD(0.05),
		Features:  ds.Features,
		Epochs:    5,
		BatchSize: 1,
		TrainEval: ds,
		Obs:       reg,
		Diag:      diag,
		Feed:      feed,
		RunName:   "diag-test",
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func diagDataset() *data.Dataset {
	return data.SyntheticBinary(data.SyntheticConfig{
		Tuples: 2000, Features: 8, Separation: 1.5, Noise: 1.0,
		Order: data.OrderClustered, Seed: 33})
}

// TestDiagReadOnly is the central invariant: enabling diagnostics must not
// perturb the weight trajectory or the loss trace by a single bit.
func TestDiagReadOnly(t *testing.T) {
	ds := diagDataset()
	plain := diagRun(t, ds, false, nil, nil)
	diag := diagRun(t, ds, true, nil, nil)

	if len(plain.Points) != len(diag.Points) {
		t.Fatalf("epoch count changed: %d vs %d", len(plain.Points), len(diag.Points))
	}
	for i := range plain.Points {
		p, d := plain.Points[i], diag.Points[i]
		if p.AvgLoss != d.AvgLoss || p.TrainAcc != d.TrainAcc || p.Tuples != d.Tuples {
			t.Fatalf("epoch %d trace changed with diagnostics on: %+v vs %+v", i+1, p, d)
		}
	}
	for i := range plain.W {
		if plain.W[i] != diag.W[i] {
			t.Fatalf("weight %d changed with diagnostics on: %v vs %v", i, plain.W[i], diag.W[i])
		}
	}

	if plain.Verdict != "" || plain.Diag != nil {
		t.Fatalf("diagnostics populated without Diag config: %q %v", plain.Verdict, plain.Diag)
	}
	if len(diag.Diag) != len(diag.Points) {
		t.Fatalf("diag rows %d, want one per epoch (%d)", len(diag.Diag), len(diag.Points))
	}
	if diag.Diag[0].Verdict != VerdictWarmup {
		t.Fatalf("first epoch verdict %q, want warmup", diag.Diag[0].Verdict)
	}
	if diag.Verdict == "" || diag.Verdict != diag.Diag[len(diag.Diag)-1].Verdict {
		t.Fatalf("final verdict %q does not match last row %q",
			diag.Verdict, diag.Diag[len(diag.Diag)-1].Verdict)
	}
	for _, row := range diag.Diag {
		if row.GradNorm <= 0 {
			t.Fatalf("epoch %d grad norm %v, want > 0", row.Epoch, row.GradNorm)
		}
		if row.UpdateNorm <= 0 {
			t.Fatalf("epoch %d update norm %v, want > 0", row.Epoch, row.UpdateNorm)
		}
	}
}

// TestRunPublishesFeed checks that an attached RunFeed receives one status
// per epoch, consistent with the result's trace, with Done on the last.
func TestRunPublishesFeed(t *testing.T) {
	ds := diagDataset()
	feed := obs.NewRunFeed()
	ch, cancel := feed.Subscribe()
	defer cancel()

	res := diagRun(t, ds, true, feed, nil)

	st, seq := feed.Status()
	if seq != int64(len(res.Points)) {
		t.Fatalf("published %d updates, want one per epoch (%d)", seq, len(res.Points))
	}
	if !st.Done {
		t.Fatal("final status must have Done set")
	}
	if st.Run != "diag-test" {
		t.Fatalf("run name %q", st.Run)
	}
	final := res.Final()
	if st.Loss != final.AvgLoss || st.Epoch != final.Epoch {
		t.Fatalf("final status %+v does not match trace point %+v", st, final)
	}
	if st.Verdict == "" {
		t.Fatalf("final status missing diagnostics verdict")
	}
	if st.Tuples != int64(len(res.Points))*int64(ds.Len()) {
		t.Fatalf("cumulative tuples %d, want %d", st.Tuples, len(res.Points)*ds.Len())
	}
	// The subscriber saw the early epochs too (buffer is deeper than the
	// epoch count here).
	first := <-ch
	if !bytes.Contains(first, []byte(`"epoch":1`)) {
		t.Fatalf("first subscriber update %s", first)
	}
}

// staticClock pins the registry's clock so breakdown rows carry no
// wall-time noise and can be compared byte-for-byte.
type staticClock struct{}

func (staticClock) Now() time.Duration { return 0 }

// passiveRun trains a small SVM reporting into a static-clock registry;
// attach, when non-nil, adds one surface to the run's config first.
func passiveRun(t *testing.T, ds *data.Dataset, attach func(*RunConfig)) *Result {
	t.Helper()
	reg := obs.New().WithClock(staticClock{})
	src := shuffle.NewMemSource(ds, 50)
	st, err := shuffle.New(shuffle.KindCorgiPile, src, shuffle.Options{
		Seed: 7, BufferFraction: 0.1, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	cfg := RunConfig{
		Strategy:  st,
		Model:     ml.SVM{},
		Opt:       ml.NewSGD(0.05),
		Features:  ds.Features,
		Epochs:    5,
		BatchSize: 1,
		TrainEval: ds,
		Obs:       reg,
		RunName:   "diag-test",
	}
	if attach != nil {
		attach(&cfg)
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// epochsJSONL returns the epochs.jsonl bytes obs.WriteRunDir writes for a
// run's breakdown rows.
func epochsJSONL(t *testing.T, res *Result) []byte {
	t.Helper()
	dir := t.TempDir()
	if err := obs.WriteRunDir(dir, obs.RunArtifacts{Epochs: res.Breakdown}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "epochs.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestTracePurity: a passive run's record (its epochs.jsonl bytes, its
// loss trace and its weights, bit for bit) must not change when live
// telemetry (a feed, an event log, armed gauge peaks) is attached.
func TestTracePurity(t *testing.T) {
	ds := diagDataset()
	base := passiveRun(t, ds, nil)
	baseRows := epochsJSONL(t, base)
	if n := bytes.Count(baseRows, []byte("\n")); n != 5 {
		t.Fatalf("epochs.jsonl has %d rows, want 5", n)
	}
	if base.Diag != nil {
		t.Fatal("passive run recorded diagnostics without Diag config")
	}
	same := func(what string, got *Result) {
		t.Helper()
		if rows := epochsJSONL(t, got); !bytes.Equal(baseRows, rows) {
			t.Fatalf("%s changed epochs.jsonl:\nbase: %s\ngot:  %s", what, baseRows, rows)
		}
		// %b prints a float64's exact mantissa and exponent.
		if b, g := fmt.Sprintf("%b", base.Points), fmt.Sprintf("%b", got.Points); b != g {
			t.Fatalf("%s changed the loss trace:\nbase: %s\ngot:  %s", what, b, g)
		}
		if fmt.Sprintf("%b", base.W) != fmt.Sprintf("%b", got.W) {
			t.Fatalf("%s changed the final weights", what)
		}
	}
	same("attaching a RunFeed", passiveRun(t, ds, func(c *RunConfig) { c.Feed = obs.NewRunFeed() }))

	// The introspection plane: its epoch spans live in the event log's
	// own ring, never in the registry.
	el := obs.NewEventLog(64)
	same("attaching an EventLog", passiveRun(t, ds, func(c *RunConfig) {
		c.Events, c.Trace = el, "purity-t1"
	}))
	if spans := el.Spans(); len(spans) != 5 {
		t.Fatalf("event log recorded %d epoch spans, want 5", len(spans))
	} else if spans[0].Trace != "purity-t1" || spans[0].Name != obs.EvSpanEpoch {
		t.Fatalf("span %+v, want trace purity-t1 name epoch", spans[0])
	}
	// And a nil event log run matches too (the zero-cost-when-idle path).
	same("a nil EventLog", passiveRun(t, ds, func(c *RunConfig) {
		c.Events, c.Trace = nil, "purity-t1"
	}))

	// Armed gauge peaks, as on every serving-plane job's registry, never
	// reach Snapshot or the breakdown.
	same("arming gauge peaks", passiveRun(t, ds, func(c *RunConfig) { c.Obs.EnablePeaks() }))
}

// TestBufferGaugesDuringRun: every run that reports into a registry
// records the shuffle buffer's fill level, served or not.
func TestBufferGaugesDuringRun(t *testing.T) {
	ds := diagDataset()
	reg := obs.New()
	diagRun(t, ds, false, nil, reg)
	if v := reg.Gauge(obs.ShuffleBufferTuples); v <= 0 {
		t.Fatalf("buffer-tuples gauge %v, want > 0", v)
	}
	occ := reg.Gauge(obs.ShuffleBufferOccupancy)
	if occ <= 0 || occ > 1 {
		t.Fatalf("buffer occupancy %v, want in (0, 1]", occ)
	}
}
