package main

import "encoding/json"

// workload is one table shape, one model and one traffic mix. Every workload
// runs the same session script (load, TRAIN, serve PREDICT and INSERT over the
// wire, reopen); what differs is the shape of the data, the share of writes,
// and where the measured time is spent.
type workload struct {
	Name string
	Why  string

	Tuples   int
	Features int
	Classes  int

	Model  string
	Epochs int
	Batch  int
	// AccFloor is the final training accuracy every TRAIN must reach.
	AccFloor float64

	// InsertEvery makes every InsertEvery-th request of the serve phase an
	// INSERT of insertRows tuples; the others are PREDICTs.
	InsertEvery int
	// TrainShare is the share of -seconds spent in the TRAIN phase; the
	// serve phase gets the rest.
	TrainShare float64
}

var workloads = []workload{
	{
		Name:   "train_narrow",
		Why:    "30k x 18 clustered tuples, svm, batch 1: the gradient is under 10% of a tuple's cost, so shuffle, block decode, the simulated clock, executor and db overhead do the work; pipeline changes show here",
		Tuples: 30_000, Features: 18, Classes: 2,
		Model: "svm", Epochs: 10, Batch: 1, AccFloor: 0.80,
		InsertEvery: 10, TrainShare: 0.60,
	},
	{
		Name:   "train_mlp_batch",
		Why:    "2k x 64 tuples, 10 classes, mlp, batch 64, procs 1: ml (gradient and the per-epoch accuracy pass) does over 80% of the work, so kernel and BatchEngine changes show here and pipeline changes must not",
		Tuples: 2_000, Features: 64, Classes: 10,
		Model: "mlp", Epochs: 8, Batch: 64, AccFloor: 0.30,
		InsertEvery: 10, TrainShare: 0.60,
	},
	{
		Name:   "serve_predict",
		Why:    "20k x 18 table, read-mostly: 99 of 100 requests are PREDICT ... LIMIT 10 on a cache that is almost never invalidated, so the warm path of parse, score, encode and wire does the work",
		Tuples: 20_000, Features: 18, Classes: 2,
		Model: "svm", Epochs: 10, Batch: 1, AccFloor: 0.80,
		InsertEvery: 100, TrainShare: 0.15,
	},
	{
		Name:   "serve_mixed",
		Why:    "same table, every 10th request an INSERT of 20 rows that fsyncs, takes the catalog write lock and drops the predict cache: the write path and the cold DecodeAll of a growing table, beside reads",
		Tuples: 20_000, Features: 18, Classes: 2,
		Model: "svm", Epochs: 10, Batch: 1, AccFloor: 0.80,
		InsertEvery: 10, TrainShare: 0.15,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// tiny shrinks a workload for the package tests: same script, same checks,
// a table small enough that a whole run takes a fraction of a second. The
// accuracy floor goes: three epochs over 200 tuples promise nothing.
func (w workload) tiny() workload {
	w.Tuples /= 25
	if w.Epochs > 3 {
		w.Epochs = 3
	}
	w.AccFloor = 0
	return w
}

// metricSpec mirrors one entry of BENCHMARK.json; the package test fails
// when the two lists drift apart.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the reference median by which an end-to-end
	// metric may get worse; per-layer metrics have none.
	Bound float64
	// Exact marks a metric that is a pure function of the seed: two runs
	// of one build at one seed must agree to the last digit.
	Exact bool
}

// The end-to-end metrics, as a user of the system sees them. Every workload
// reports every one of them. Timing bounds are wide because the reference
// box is a 2-vCPU guest whose speed moves by tens of percent with its
// neighbours; README.md gives the measured spreads.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "train_tuples_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "train_sim_s", Unit: "sim_s", Better: "lower", Bound: 0.01, Exact: true},
	{Name: "train_final_loss", Unit: "loss", Better: "lower", Bound: 0.25, Exact: true},
	{Name: "predict_warm_p5_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "predict_cold_p5_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "insert_p5_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "wal_bytes_per_user_byte", Unit: "ratio", Better: "lower", Bound: 0.02, Exact: true},
}

// The per-layer metrics, named <layer>.<metric>. They are measured in the
// traced pass by timing calls from outside, and gate nothing.
var perLayer = []metricSpec{
	// TRAIN ladder.
	{Name: "ml.epoch_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "ml.allocs_per_tuple", Unit: "count", Better: "lower"},
	{Name: "shuffle.corgipile_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "shuffle.allocs_per_tuple", Unit: "count", Better: "lower"},
	{Name: "storage.read_block_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "storage.decode_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "iosim.advance_ns", Unit: "ns", Better: "lower"},
	{Name: "iosim.read_at_ns", Unit: "ns", Better: "lower"},
	{Name: "executor.plan_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "executor.profiled_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "core.run_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "db.train_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "db.train_tax_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "obs.train_tax_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "serve.train_job_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "sqlparse.parse_train_us", Unit: "us", Better: "lower"},
	// PREDICT ladder.
	{Name: "ml.predict_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "storage.decode_all_ms", Unit: "ms", Better: "lower"},
	{Name: "db.predict_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.predict_warm_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.predict_cold_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.predict_limit1000_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.noop_roundtrip_us", Unit: "us", Better: "lower"},
	{Name: "serve.predict_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.predict_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.predict_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.predict_2conn_per_s", Unit: "1/s", Better: "higher"},
	{Name: "sqlparse.parse_predict_us", Unit: "us", Better: "lower"},
	// INSERT and recovery ladder.
	{Name: "storage.append_tuples_us", Unit: "us", Better: "lower"},
	{Name: "storage.wal_append_us", Unit: "us", Better: "lower"},
	{Name: "storage.wal_sync_us_p50", Unit: "us", Better: "lower"},
	{Name: "storage.wal_syncs_per_insert", Unit: "count", Better: "lower"},
	{Name: "storage.wal_bytes_per_insert", Unit: "B", Better: "lower"},
	{Name: "db.insert_us", Unit: "us", Better: "lower"},
	{Name: "db.insert_nowal_us", Unit: "us", Better: "lower"},
	{Name: "serve.insert_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.insert_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.mixed_2conn_tuples_per_s", Unit: "1/s", Better: "higher"},
	{Name: "sqlparse.parse_insert_us", Unit: "us", Better: "lower"},
	{Name: "db.recover_ms", Unit: "ms", Better: "lower"},
	{Name: "db.recover_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "db.checkpoint_ms", Unit: "ms", Better: "lower"},
	{Name: "db.wal_mb", Unit: "MB", Better: "lower"},
	// Whole process, and what the harness's own spans cost.
	{Name: "process.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "process.alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "process.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "process.trace_overhead_us", Unit: "us", Better: "lower"},
}

// runSeconds is BENCHMARK.json's run_seconds, the -seconds the driver passes.
const runSeconds = 18

// specJSON renders BENCHMARK.json from the tables above; `-spec` prints it
// and the package test holds the committed file to it.
func specJSON() ([]byte, error) {
	type named struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []named  `json:"workloads"`
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}{Command: []string{"sh", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, named{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		bound := m.Bound
		doc.EndToEnd = append(doc.EndToEnd, metric{m.Name, m.Unit, m.Better, &bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, metric{m.Name, m.Unit, m.Better, nil})
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	return append(buf, '\n'), err
}
