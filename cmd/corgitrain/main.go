// Command corgitrain trains a model on a LIBSVM file with a chosen
// shuffling strategy — the library as a practical command-line tool.
//
// Usage:
//
//	corgitrain -file data.libsvm [-model svm] [-lr 0.05] [-epochs 10]
//	           [-strategy corgipile] [-buffer 0.1] [-batch 1]
//	           [-save model.json] [-metrics] [-trace-out trace.jsonl]
//	           [-faults 'seed=7,read_err=0.01'] [-retries 3]
//	           [-serve 127.0.0.1:0] [-diag] [-explain] [-run-dir DIR]
//	           [-events events.jsonl]
//	corgitrain -synthetic higgs [-scale 0.05] ...
//
// The training table is used as-is (no shuffling of the file), so a file
// written in clustered order exercises exactly the pathology the paper
// studies; compare -strategy no_shuffle against -strategy corgipile. A
// fifth of the tuples is held out for the test metrics, and every run uses
// seed 1. -faults trains on a simulated SSD and fails on a corrupt block.
//
// -serve exposes live telemetry over HTTP while training: /metrics in
// Prometheus text format, /run as a JSON snapshot or SSE stream, and
// /debug/pprof/ for profiling. -synthetic trains on a generated workload
// instead of a file, for smoke tests without data on disk.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"corgipile"
	"corgipile/internal/data"
	"corgipile/internal/db"
	"corgipile/internal/ml"
	"corgipile/internal/obs"
)

func main() {
	def := corgipile.TrainConfig{}.WithDefaults()
	var (
		file      = flag.String("file", "", "LIBSVM input file (required)")
		model     = flag.String("model", def.Model, "model: lr, svm, linreg, softmax, mlp, fm")
		lr        = flag.Float64("lr", def.LearningRate, "initial learning rate")
		epochs    = flag.Int("epochs", def.Epochs, "training epochs")
		strategy  = flag.String("strategy", string(def.Strategy), "shuffle strategy: no_shuffle, shuffle_once, epoch_shuffle, sliding_window, mrs, block_only, corgipile")
		buffer    = flag.Float64("buffer", def.BufferFraction, "buffer fraction for the shuffle strategies")
		batch     = flag.Int("batch", 1, "mini-batch size (1 = per-tuple SGD)")
		save      = flag.String("save", "", "save the trained model to this JSON file via the SQL layer")
		metrics   = flag.Bool("metrics", false, "print a per-epoch time breakdown after training")
		traceOut  = flag.String("trace-out", "", "write the JSONL event trace to this file")
		faults    = flag.String("faults", "", "fault-injection plan, e.g. 'seed=7,read_err=0.01,corrupt=3;17' (switches to simulated-device training)")
		retries   = flag.Int("retries", 0, "retry attempts after a transient read error")
		serve     = flag.String("serve", "", "serve live telemetry (/metrics, /run, /debug/pprof/) on this address during training")
		diag      = flag.Bool("diag", false, "enable convergence diagnostics (grad norm, plateau/divergence verdict)")
		explain   = flag.Bool("explain", false, "profile the executor plan and print the annotated EXPLAIN ANALYZE tree after training")
		runDir    = flag.String("run-dir", "", "write durable run artifacts (manifest.json, epochs.jsonl, metrics.prom) to this directory")
		synthetic = flag.String("synthetic", "", "train on a generated workload (higgs, susy, ...) instead of -file")
		scale     = flag.Float64("scale", 0.05, "-synthetic: dataset scale factor")
		eventsOut = flag.String("events", "", "append structured per-epoch span events as JSONL to this file")
	)
	flag.Parse()
	if *file == "" && *synthetic == "" {
		flag.Usage()
		os.Exit(2)
	}

	var ds *corgipile.Dataset
	var source string
	if *synthetic != "" {
		ds = corgipile.Synthetic(*synthetic, *scale, corgipile.OrderClustered)
		source = *synthetic
		fmt.Printf("generated %s (scale %g): %d tuples, %d features, %s\n",
			*synthetic, *scale, ds.Len(), ds.Features, ds.Task)
	} else {
		f, err := os.Open(*file)
		if err != nil {
			fatal(err)
		}
		var rerr error
		ds, rerr = data.ReadLIBSVM(f, *file, 0)
		f.Close()
		if rerr != nil {
			fatal(rerr)
		}
		source = *file
		fmt.Printf("loaded %s: %d tuples, %d features, %s\n", *file, ds.Len(), ds.Features, ds.Task)
	}

	const seed = 1
	train, test := ds.Split(0.2, rand.New(rand.NewSource(seed)))
	fmt.Printf("split: %d train / %d test\n", train.Len(), test.Len())

	var reg *corgipile.Metrics
	if *metrics || *traceOut != "" || *serve != "" || *runDir != "" {
		reg = corgipile.NewMetrics()
		if *traceOut != "" {
			f, err := os.Create(*traceOut)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			reg.StreamTo(f)
		}
	}
	runName := fmt.Sprintf("corgitrain %s/%s", *model, source)
	var feed *corgipile.RunFeed
	if *serve != "" {
		feed = corgipile.NewRunFeed()
		srv, err := obs.Serve(obs.ServeConfig{Addr: *serve, Registry: reg, Feed: feed})
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Printf("telemetry on %s\n", srv.URL())
	}
	cfg := corgipile.TrainConfig{
		Model:          *model,
		LearningRate:   *lr,
		Epochs:         *epochs,
		BatchSize:      *batch,
		Strategy:       corgipile.StrategyKind(*strategy),
		BufferFraction: *buffer,
		Seed:           seed,
		Metrics:        reg,
		Retries:        *retries,
		Feed:           feed,
		RunName:        runName,
		Explain:        *explain,
		Diag:           *diag,
	}
	if *eventsOut != "" {
		f, err := os.OpenFile(*eventsOut, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		cfg.Events = corgipile.NewEventLog(0).StreamTo(f)
		cfg.Trace = runName
	}
	var res *corgipile.Result
	if *faults != "" {
		// Fault injection needs a simulated device under the table; train
		// through the storage stack instead of in memory.
		plan, err := corgipile.ParseFaultPlan(*faults)
		if err != nil {
			fatal(err)
		}
		cfg.Faults = &plan
		var clock *corgipile.Clock
		res, clock, err = corgipile.TrainOnDevice(train, cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("faults: %s (simulated ssd time %.2fs)\n",
			res.Faults.String(), clock.Now().Seconds())
	} else {
		var err error
		res, err = corgipile.Train(train, cfg)
		if err != nil {
			fatal(err)
		}
	}
	if *metrics {
		if err := corgipile.WriteEpochBreakdown(os.Stdout, res.Breakdown); err != nil {
			fatal(err)
		}
	}

	for _, p := range res.Points {
		fmt.Printf("epoch %2d  loss %.5f  train %.4f\n", p.Epoch, p.AvgLoss, p.TrainAcc)
	}
	if *diag && res.Verdict != "" {
		fmt.Printf("convergence verdict: %s\n", res.Verdict)
	}
	if *explain && res.Plan != nil {
		fmt.Printf("\nexecuted plan (EXPLAIN ANALYZE):\n%s", res.Plan.Text(true))
	}
	fmt.Printf("final train accuracy: %.4f\n", res.Final().TrainAcc)
	if *runDir != "" {
		manifestCfg := cfg
		manifestCfg.Metrics = nil // not serializable config
		manifestCfg.Feed = nil
		if err := obs.WriteRunDir(*runDir, obs.RunArtifacts{
			Manifest: obs.Manifest{
				Tool:   "corgitrain",
				Run:    runName,
				Seed:   cfg.Seed,
				Config: manifestCfg,
				Args:   os.Args[1:],
			},
			Epochs:  res.Breakdown,
			Plan:    res.Plan,
			Metrics: reg,
		}); err != nil {
			fatal(err)
		}
		fmt.Printf("run artifacts written to %s\n", *runDir)
	}
	m, err := ml.New(*model, train.Classes)
	if err != nil {
		fatal(err)
	}
	if test.Task == data.TaskRegression {
		fmt.Printf("test R²: %.4f\n", ml.R2(m, res.W, test))
	} else {
		fmt.Printf("test accuracy: %.4f\n", ml.Accuracy(m, res.W, test))
		if test.Task == data.TaskBinary {
			fmt.Printf("test AUC: %.4f\n", ml.ModelAUC(m, res.W, test))
		}
	}

	if *save != "" {
		if err := saveModel(*save, *model, train, res.W); err != nil {
			fatal(err)
		}
		fmt.Printf("model saved to %s\n", *save)
	}
}

// saveModel persists the weights in the db layer's model-file format, so
// corgisql's LOAD MODEL can restore it.
func saveModel(path, kind string, train *corgipile.Dataset, w []float64) error {
	hidden := 0
	if kind == "mlp" {
		hidden = 32
	}
	return db.SaveModelFile(path, kind, train.Features, train.Classes, hidden, w)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "corgitrain:", err)
	os.Exit(1)
}
