// Package corgipile is a from-scratch Go implementation of CorgiPile
// (SIGMOD 2022): stochastic gradient descent over block-addressable
// secondary storage without a full data shuffle.
//
// CorgiPile replaces the expensive full shuffle that SGD normally needs
// with a two-level hierarchical shuffle: each epoch it (1) shuffles the
// order of storage *blocks*, (2) pulls a buffer's worth of blocks into
// memory, and (3) shuffles the buffered *tuples* before feeding them to
// SGD. Random access at block granularity costs nearly the same as a
// sequential scan, while the two-level shuffle delivers convergence
// comparable to a fully shuffled pass.
//
// The package exposes three levels of API:
//
//   - Dataset-level: CorgiPileDataset streams shuffled tuples from any
//     in-memory dataset, the analogue of the paper's PyTorch
//     CorgiPileDataSet (see also internal/dist for the multi-worker mode).
//   - Trainer-level: Train runs a model/optimizer/strategy combination and
//     returns the convergence trace with simulated wall-clock times.
//   - SQL-level: NewSession opens an in-DB ML session supporting
//     CREATE TABLE ... / SELECT * FROM t TRAIN BY svm ... / PREDICT BY.
//
// All randomness is seeded and all performance numbers come from a
// deterministic storage simulation, so results reproduce exactly.
//
// A run attached to a Metrics registry records one cross-layer breakdown
// row per epoch (I/O, shuffle, gradient time, loss) in Result.Breakdown,
// and nowhere else. WriteEpochBreakdown renders those rows as a table;
// corgitrain and corgisql print it with -metrics and write it as a run
// dir's epochs.jsonl with -run-dir.
package corgipile

import (
	"io"

	"corgipile/internal/core"
	"corgipile/internal/data"
	"corgipile/internal/db"
	"corgipile/internal/iosim"
	"corgipile/internal/ml"
	"corgipile/internal/obs"
	"corgipile/internal/serve"
	"corgipile/internal/shuffle"
	"corgipile/internal/storage"
)

// Re-exported core types. These aliases are the library's public surface;
// the internal packages carry the implementations.
type (
	// Tuple is one training example.
	Tuple = data.Tuple
	// Dataset is an in-memory tuple collection with metadata.
	Dataset = data.Dataset
	// Order is the physical tuple order (clustered / shuffled / by
	// feature).
	Order = data.Order
	// Model is a trainable per-example loss, one that NewModel builds: its
	// gradient method is unexported, so only those models, or a type
	// embedding one, implement it.
	Model = ml.Model
	// Optimizer applies gradient updates.
	Optimizer = ml.Optimizer
	// Strategy streams per-epoch tuple orders.
	Strategy = shuffle.Strategy
	// StrategyKind names a shuffling strategy.
	StrategyKind = shuffle.Kind
	// Clock is the simulated clock.
	Clock = iosim.Clock
	// Device is a simulated storage device.
	Device = iosim.Device
	// Table is an on-device heap table.
	Table = storage.Table
	// Result is a training run's convergence trace.
	Result = core.Result
	// EpochPoint is one epoch of a convergence trace.
	EpochPoint = core.EpochPoint
	// Session is an in-DB ML session.
	Session = db.Session
	// Metrics is the cross-layer observability registry: counters, gauges,
	// duration histograms, spans, and exporters. Attach one via
	// TrainConfig.Metrics (or Session.WithMetrics) to get per-epoch time
	// breakdowns.
	Metrics = obs.Registry
	// EpochMetrics is one epoch's cross-layer time breakdown.
	EpochMetrics = obs.EpochMetrics
	// FaultPlan is a deterministic storage fault-injection plan: seeded
	// transient read errors, latency-spike stragglers, and corrupt blocks.
	// Attach one via TrainConfig.Faults.
	FaultPlan = iosim.FaultPlan
	// FaultSummary records how a run coped with injected faults (retries,
	// backoff time, quarantined blocks); see Result.Faults.
	FaultSummary = shuffle.FaultSummary
	// RunFeed publishes live per-epoch RunStatus updates to subscribers;
	// attach one via TrainConfig.Feed and serve it with ServeTelemetry.
	RunFeed = obs.RunFeed
	// RunStatus is one live status update of a training run.
	RunStatus = obs.RunStatus
	// TelemetryServer is the HTTP server behind ServeTelemetry: /metrics in
	// Prometheus text format, /run as JSON or SSE, and /debug/pprof/.
	TelemetryServer = obs.Server
	// EpochDiag is one epoch's convergence diagnostics row.
	EpochDiag = core.EpochDiag
	// PlanStats is an annotated physical-plan tree: one node per executor
	// operator, carrying rows, self/total time on both clocks, and I/O
	// statistics. Result.Plan holds one for TrainConfig.Explain runs; render
	// it with Text(true) or JSON().
	PlanStats = obs.PlanStats
	// EventLog is the structured event log: a bounded in-memory ring of
	// typed events (statement lifecycle, job transitions, checkpoints,
	// replication) plus per-trace spans. Attach one via TrainConfig.Events
	// or Session.WithEvents; create one with NewEventLog.
	EventLog = obs.EventLog
	// Event is one structured event-log entry.
	Event = obs.Event
	// Verdict classifies a run's convergence health ("converging",
	// "plateau", "diverging", "warmup").
	Verdict = core.Verdict
	// Server is the serving plane: a long-lived multi-session
	// training/prediction server speaking the newline-delimited JSON
	// protocol of docs/PROTOCOL.md. Start one with NewServer.
	Server = serve.Server
	// ServeConfig configures a Server (listen address, worker count,
	// admission-control limits, telemetry, artifact root).
	ServeConfig = serve.Config
	// ServeClient is a protocol client for a running Server.
	ServeClient = serve.Client
	// JobStatus is the wire representation of one background TRAIN job.
	JobStatus = serve.JobStatus
	// JobState is a TRAIN job's lifecycle state (queued, running, done,
	// failed, canceled).
	JobState = serve.JobState
	// JobStats is one job's resource accounting (queue wait, wall/CPU time,
	// bytes read, tuples, blocks, peak buffer occupancy), reported on
	// status responses with stats=true and in corgi_job_stats.
	JobStats = serve.JobStats
)

// Tuple orders.
const (
	OrderShuffled  = data.OrderShuffled
	OrderClustered = data.OrderClustered
	OrderFeature   = data.OrderFeature
)

// Shuffling strategies.
const (
	NoShuffle     = shuffle.KindNoShuffle
	ShuffleOnce   = shuffle.KindShuffleOnce
	EpochShuffle  = shuffle.KindEpochShuffle
	SlidingWindow = shuffle.KindSlidingWindow
	MRSShuffle    = shuffle.KindMRS
	BlockOnly     = shuffle.KindBlockOnly
	CorgiPile     = shuffle.KindCorgiPile
)

// NewSession opens an in-DB ML session with simulated HDD/SSD/RAM devices.
func NewSession() *Session { return db.NewSession() }

// ParseFaultPlan parses a fault-plan spec of the form
// "seed=7,read_err=0.01,burst=3,err_ms=2,straggler=0.005,straggler_ms=50,corrupt=3;17".
func ParseFaultPlan(spec string) (FaultPlan, error) { return iosim.ParseFaultPlan(spec) }

// NewModel constructs a model by name: "lr", "svm", "linreg", "softmax",
// "mlp". classes is used by the multi-class models.
func NewModel(name string, classes int) (Model, error) { return ml.New(name, classes) }

// NewSGD returns an SGD optimizer with the paper's default 0.95 per-epoch
// learning-rate decay.
func NewSGD(lr float64) Optimizer { return ml.NewSGD(lr) }

// NewAdam returns an Adam optimizer.
func NewAdam(lr float64) Optimizer { return ml.NewAdam(lr) }

// NewMetrics returns an empty metrics registry. Pass it via
// TrainConfig.Metrics to collect a per-epoch breakdown of where training
// time goes into Result.Breakdown.
func NewMetrics() *Metrics { return obs.New() }

// NewRunFeed returns an empty live-status feed. Pass it via TrainConfig.Feed
// and to ServeTelemetry to watch a run over HTTP.
func NewRunFeed() *RunFeed { return obs.NewRunFeed() }

// NewEventLog returns an empty structured event log holding the most recent
// n events (0 = a sensible default). Stream every event as JSONL with
// StreamTo; query the ring via Events/Spans or, in a session, with
// SELECT * FROM corgi_events.
func NewEventLog(n int) *EventLog { return obs.NewEventLog(n) }

// ServeTelemetry starts the telemetry HTTP server on addr (host:port;
// port 0 picks a free one — read the bound address with Addr). It serves
// /metrics (Prometheus text format over reg), /run (live JSON or SSE from
// feed), and /debug/pprof/. Serving reg adds the runtime collector to it,
// so every read of reg carries the process gauges (heap, goroutines, GC
// pauses). Close the server to stop serving.
func ServeTelemetry(addr string, reg *Metrics, feed *RunFeed) (*TelemetryServer, error) {
	return obs.Serve(obs.ServeConfig{Addr: addr, Registry: reg, Feed: feed})
}

// NewServer starts the serving plane on cfg.Addr: a TCP server that
// parses the TRAIN BY / PREDICT BY dialect, queues TRAIN statements as
// cancellable background jobs behind admission control, and answers
// PREDICTs from cached models. See docs/PROTOCOL.md for the wire protocol
// and cmd/corgiserved for the binary.
func NewServer(cfg ServeConfig) (*Server, error) { return serve.New(cfg) }

// DialServer connects a client to a running Server and performs the
// protocol handshake.
func DialServer(addr string) (*ServeClient, error) { return serve.Dial(addr) }

// WriteEpochBreakdown renders per-epoch metrics rows (Result.Breakdown) as
// an aligned text table.
func WriteEpochBreakdown(w io.Writer, rows []EpochMetrics) error {
	return obs.WriteEpochTable(w, "epoch breakdown", rows)
}

// Synthetic generates a named synthetic workload ("higgs", "susy",
// "epsilon", "criteo", "yfcc", "cifar10", "imagenet", "yelp", "yearpred",
// "mini8m") at the given scale and order.
func Synthetic(workload string, scale float64, order Order) *Dataset {
	return data.Generate(workload, scale, order)
}
