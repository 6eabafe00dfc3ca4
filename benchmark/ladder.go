package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"corgipile/internal/core"
	"corgipile/internal/data"
	"corgipile/internal/db"
	"corgipile/internal/executor"
	"corgipile/internal/iosim"
	"corgipile/internal/ml"
	"corgipile/internal/obs"
	"corgipile/internal/serve"
	"corgipile/internal/shuffle"
	"corgipile/internal/sqlparse"
	"corgipile/internal/storage"
)

// rung is one timed call into one layer, repeated.
type rung struct {
	name  string // span name: the function called
	layer string
	// min is the least number of calls; more are made until share of the
	// run's -seconds is spent.
	min   int
	share float64
	// before, when set, runs untimed ahead of every call.
	before func() error
	call   func() error
}

// timed is what a rung measured.
type timed struct {
	secs   []float64 // one per call
	allocs float64   // heap allocations over all calls
}

// fast is the rung's figure: the fast quantile of its calls, the same
// statistic the end-to-end latencies use (see fastQuantile).
func (t timed) fast() float64 { return percentile(t.secs, fastQuantile) }

// Shares of -seconds: quick is for calls of microseconds to milliseconds,
// pass for a pass over the table, stmt for whole statements.
const (
	quick = 0.01
	pass  = 0.02
	stmt  = 0.03
)

// measure runs the rung, recording one span per call under a span for the rung.
func (r *run) measure(g rung) (timed, error) {
	var t timed
	parent := r.tr.begin(g.name, g.layer, 0)
	defer r.tr.end(parent)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < g.min || time.Since(start) < r.budget(g.share); i++ {
		if g.before != nil {
			if err := g.before(); err != nil {
				return t, fmt.Errorf("%s: %w", g.name, err)
			}
		}
		id := r.tr.begin(g.name, g.layer, parent)
		t0 := time.Now()
		err := g.call()
		t.secs = append(t.secs, time.Since(t0).Seconds())
		r.tr.end(id)
		if err != nil {
			return t, fmt.Errorf("%s: %w", g.name, err)
		}
	}
	runtime.ReadMemStats(&after)
	t.allocs = float64(after.Mallocs - before.Mallocs)
	return t, nil
}

// learner builds the workload's model, a fresh optimizer and the weight
// initializer TRAIN uses, so every rung below db trains what db trains.
func (r *run) learner() (ml.Model, ml.Optimizer, func([]float64), error) {
	w := r.in.w
	model, err := ml.New(w.Model, w.Classes)
	if err != nil {
		return nil, nil, nil, err
	}
	var init func([]float64)
	if mlp, ok := model.(ml.MLP); ok {
		init = core.MLPInit(mlp, w.Features, r.in.seed)
	}
	return model, ml.NewSGD(0.05), init, nil
}

func (r *run) shuffleOptions() shuffle.Options {
	return shuffle.Options{BufferFraction: 0.1, Seed: r.in.seed, DoubleBuffer: true}
}

// ladder is the traced pass: the workload's inputs through every layer from
// the gradient kernel to the socket, a span around each call.
type ladder struct {
	*run
	w      workload
	report io.Writer
	out    map[string]sample

	l   *loaded        // the WAL-backed session every db and serve rung uses
	tab *storage.Table // its table
	// plain and withObs are two more sessions, without a WAL. They are
	// loaded before the first rung so that the TRAIN rungs run beside about
	// as much live heap as the end-to-end pass's TRAIN does beside its serve
	// side: the collector's pace, and with it TRAIN's, follows the heap.
	plain, withObs *loaded
	// ds is the input file read back, so that rungs below db see the
	// sparse-coded tuples the table holds; decoded is the table decoded.
	ds      *data.Dataset
	decoded []data.Tuple
	// tuples is the table's size as the next statement will find it.
	tuples    int
	insertRng *rand.Rand
}

func (ld *ladder) set(name string, v float64) { ld.out[name] = sample{Value: v, N: 1} }

// perTuple is a rung's figure in nanoseconds per tuple, for calls that each
// make the given number of passes over the initial table.
func (ld *ladder) perTuple(t timed, passes int) float64 {
	return t.fast() * 1e9 / float64(ld.w.Tuples*passes)
}

// insertCall is one INSERT statement straight into a session.
func (ld *ladder) insertCall(s *db.Session) func() error {
	return func() error {
		_, err := s.Exec(ld.in.insertSQL(ld.insertRng))
		ld.check(err == nil, "INSERT: %v", err)
		return err
	}
}

func (r *run) ladder(report io.Writer) (map[string]sample, error) {
	l, err := r.load(true)
	if err != nil {
		return nil, err
	}
	defer l.close()
	entry, _ := l.sess.Table("t")
	f, err := os.Open(l.file)
	if err != nil {
		return nil, err
	}
	ds, err := data.ReadLIBSVM(f, "t", 0)
	f.Close()
	if err != nil {
		return nil, err
	}
	plain, err := r.load(false)
	if err != nil {
		return nil, err
	}
	defer plain.close()
	withObs, err := r.load(false)
	if err != nil {
		return nil, err
	}
	defer withObs.close()
	withObs.sess.WithMetrics(obs.New()).WithEvents(obs.NewEventLog(0))
	ld := &ladder{
		run: r, w: r.in.w, report: report, out: map[string]sample{},
		l: l, tab: entry.Table, plain: plain, withObs: withObs, ds: ds, tuples: r.in.w.Tuples,
		insertRng: rand.New(rand.NewSource(r.in.seed + 3)),
	}
	for _, stage := range []func() error{
		ld.trainRungs, ld.obsRungs, ld.predictRungs, ld.serveRungs, ld.insertRungs, ld.recoveryRungs, ld.processRungs,
	} {
		if err := stage(); err != nil {
			return nil, err
		}
	}
	return ld.out, nil
}

// trainRungs climbs TRAIN from the gradient kernel to Session.Exec.
func (ld *ladder) trainRungs() error {
	model, opt, init, err := ld.learner()
	if err != nil {
		return err
	}
	weights := func() []float64 {
		wts := make([]float64, model.Dim(ld.w.Features))
		if init != nil {
			init(wts)
		}
		return wts
	}
	seq := ml.NewTrainer(model, opt, ld.w.Batch)
	seq.Procs = 1
	wts := weights()
	opt.Reset(len(wts))
	t, err := ld.measure(rung{name: "Trainer.RunEpoch", layer: "ml", min: 3, share: pass, call: func() error {
		seq.RunEpoch(wts, ml.SliceStream(ld.ds))
		return nil
	}})
	seq.Close()
	if err != nil {
		return err
	}
	ld.set("ml.epoch_ns_per_tuple", ld.perTuple(t, 1))
	ld.set("ml.allocs_per_tuple", t.allocs/float64(ld.w.Tuples*len(t.secs)))

	if runtime.GOMAXPROCS(0) >= 2 {
		batch := ld.w.Batch
		if batch < 64 {
			batch = 64
		}
		par := ml.NewTrainer(model, ml.NewSGD(0.05), batch)
		par.Procs = 2
		pw := weights()
		par.Opt.Reset(len(pw))
		t, err := ld.measure(rung{name: "Trainer.RunEpoch procs=2", layer: "ml", min: 3, share: pass, call: func() error {
			par.RunEpoch(pw, ml.SliceStream(ld.ds))
			return nil
		}})
		par.Close()
		if err != nil {
			return err
		}
		fmt.Fprintf(ld.report, "  %-34s %14.6g %-6s (batch %d; not in BENCHMARK.json: needs 2 procs)\n",
			"ml.batch_procs2_ns_per_tuple", ld.perTuple(t, 1), "ns", batch)
	} else {
		fmt.Fprintf(ld.report, "  ml.batch_procs2_ns_per_tuple omitted: GOMAXPROCS < 2\n")
	}

	perBlock := (ld.tab.NumTuples() + ld.tab.NumBlocks() - 1) / ld.tab.NumBlocks()
	strat, err := shuffle.New(shuffle.KindCorgiPile, shuffle.NewMemSource(ld.ds, perBlock), ld.shuffleOptions())
	if err != nil {
		return err
	}
	epoch := 0
	t, err = ld.measure(rung{name: "corgipile over MemSource", layer: "shuffle", min: 3, share: pass, call: func() error {
		it, err := strat.StartEpoch(epoch)
		if err != nil {
			return err
		}
		epoch++
		n := 0
		for _, ok := it.Next(); ok; _, ok = it.Next() {
			n++
		}
		if n != ld.w.Tuples {
			return fmt.Errorf("shuffle yielded %d tuples, want %d", n, ld.w.Tuples)
		}
		return it.Err()
	}})
	if err != nil {
		return err
	}
	ld.set("shuffle.corgipile_ns_per_tuple", ld.perTuple(t, 1))
	ld.set("shuffle.allocs_per_tuple", t.allocs/float64(ld.w.Tuples*len(t.secs)))

	t, err = ld.measure(rung{name: "Table.ReadBlock", layer: "storage", min: 3, share: pass, call: func() error {
		for i := 0; i < ld.tab.NumBlocks(); i++ {
			if _, err := ld.tab.ReadBlock(i); err != nil {
				return err
			}
		}
		return nil
	}})
	if err != nil {
		return err
	}
	ld.set("storage.read_block_ns_per_tuple", ld.perTuple(t, 1))

	// The file's tuples are not needed above this rung. Letting them go
	// keeps the live heap, and so the collector's share of the TRAIN rungs,
	// close to the end-to-end pass's.
	ld.ds = nil

	const advances = 100_000
	clock := iosim.NewClock()
	t, err = ld.measure(rung{name: "Clock.Advance x100000", layer: "iosim", min: 3, share: quick, call: func() error {
		for i := 0; i < advances; i++ {
			clock.Advance(time.Nanosecond)
		}
		return nil
	}})
	if err != nil {
		return err
	}
	ld.set("iosim.advance_ns", t.fast()*1e9/advances)

	dev := iosim.NewDevice(iosim.SSD, iosim.NewClock()).WithCache(16 << 30)
	blockBytes := ld.tab.SizeBytes() / int64(ld.tab.NumBlocks())
	const sweeps = 100
	t, err = ld.measure(rung{name: "Device.ReadAt, every block x100", layer: "iosim", min: 3, share: quick, call: func() error {
		for sweep := 0; sweep < sweeps; sweep++ {
			for i := 0; i < ld.tab.NumBlocks(); i++ {
				dev.ReadAt(int64(i)*blockBytes, blockBytes)
			}
		}
		return nil
	}})
	if err != nil {
		return err
	}
	ld.set("iosim.read_at_ns", t.fast()*1e9/float64(sweeps*ld.tab.NumBlocks()))

	plan := func(profile bool) rung {
		name := "BuildSGDPlan.Run"
		if profile {
			name += " profiled"
		}
		return rung{name: name, layer: "executor", min: 1, share: stmt, call: func() error {
			model, opt, init, err := ld.learner()
			if err != nil {
				return err
			}
			op, err := executor.BuildSGDPlan(shuffle.TableSource(ld.tab), executor.PlanConfig{
				Shuffle: shuffle.KindCorgiPile, BufferFraction: 0.1, DoubleBuffer: true, Seed: ld.in.seed, Profile: profile,
				SGD: executor.SGDConfig{
					Model: model, Opt: opt, Features: ld.w.Features, Epochs: ld.w.Epochs, BatchSize: ld.w.Batch, Procs: 1,
					Clock: ld.tab.Device().Clock(), InitWeights: init,
				},
			})
			if err != nil {
				return err
			}
			_, err = op.Run()
			return err
		}}
	}
	t, err = ld.measure(plan(false))
	if err != nil {
		return err
	}
	planNs := ld.perTuple(t, ld.w.Epochs)
	ld.set("executor.plan_ns_per_tuple", planNs)
	t, err = ld.measure(plan(true))
	if err != nil {
		return err
	}
	ld.set("executor.profiled_ns_per_tuple", ld.perTuple(t, ld.w.Epochs))

	t, err = ld.measure(rung{name: "core.Run", layer: "core", min: 1, share: stmt, call: func() error {
		model, opt, init, err := ld.learner()
		if err != nil {
			return err
		}
		strat, err := shuffle.New(shuffle.KindCorgiPile, shuffle.TableSource(ld.tab), ld.shuffleOptions())
		if err != nil {
			return err
		}
		_, err = core.Run(core.RunConfig{
			Strategy: strat, Model: model, Opt: opt, Features: ld.w.Features, Epochs: ld.w.Epochs, BatchSize: ld.w.Batch, Procs: 1,
			Clock: ld.tab.Device().Clock(), InitWeights: init, Seed: ld.in.seed,
		})
		return err
	}})
	if err != nil {
		return err
	}
	ld.set("core.run_ns_per_tuple", ld.perTuple(t, ld.w.Epochs))

	// The db rung is the end-to-end TRAIN phase itself, traced.
	phase := ld.tr.begin("TRAIN phase", "db", 0)
	train := &trainer{r: ld.run}
	err = train.runFor(ld.l.sess, ld.budget(0.10), phase)
	ld.tr.end(phase)
	if err != nil {
		return err
	}
	dbNs := 1e9 / train.tuplesPerSec().Value
	ld.set("db.train_ns_per_tuple", dbNs)
	ld.set("db.train_tax_ns_per_tuple", dbNs-planNs)

	t, err = ld.measure(rung{name: "sqlparse.Parse TRAIN x100", layer: "sqlparse", min: 3, share: quick, call: parse100(ld.in.trainSQL(0))})
	if err != nil {
		return err
	}
	ld.set("sqlparse.parse_train_us", t.fast()*1e6/100)

	return nil
}

// obsRungs uses the two sessions without a WAL: TRAIN with obs attached and
// without, taking turns so that neither side has the warmer heap, and then
// INSERT without the log.
func (ld *ladder) obsRungs() error {
	trainOn := func(s *db.Session) func() error {
		n := 0
		return func() error {
			n++
			_, err := s.Exec(ld.in.trainSQL(n))
			ld.check(err == nil, "TRAIN: %v", err)
			return err
		}
	}
	sides := []struct {
		rung
		timed
	}{
		{rung: rung{name: "Session.Exec TRAIN (plain)", layer: "db", min: 1, call: trainOn(ld.plain.sess)}},
		{rung: rung{name: "Session.Exec TRAIN (WithMetrics+WithEvents)", layer: "obs", min: 1, call: trainOn(ld.withObs.sess)}},
	}
	for turn := 0; turn < 3; turn++ {
		for i := range sides {
			t, err := ld.measure(sides[i].rung)
			if err != nil {
				return err
			}
			sides[i].secs = append(sides[i].secs, t.secs...)
		}
	}
	ld.set("obs.train_tax_ns_per_tuple", (sides[1].fast()-sides[0].fast())*1e9/float64(ld.w.Tuples*ld.w.Epochs))

	t, err := ld.measure(rung{name: "Session.Exec INSERT (no WAL)", layer: "db", min: 20, share: quick, call: ld.insertCall(ld.plain.sess)})
	if err != nil {
		return err
	}
	ld.set("db.insert_nowal_us", t.fast()*1e6)
	return nil
}

// predictRungs climbs PREDICT up to Session.Exec, before a server owns the
// session.
func (ld *ladder) predictRungs() error {
	t, err := ld.measure(rung{name: "Table.DecodeAll", layer: "storage", min: 3, share: pass, call: func() error {
		var err error
		ld.decoded, err = ld.tab.DecodeAll()
		return err
	}})
	if err != nil {
		return err
	}
	ld.set("storage.decode_all_ms", t.fast()*1e3)
	ld.set("storage.decode_mb_per_s", float64(ld.tab.SizeBytes())/1e6/t.fast())

	m0, ok := ld.l.sess.Model("m0")
	if !ok {
		return fmt.Errorf("the TRAIN phase left no model m0")
	}
	t, err = ld.measure(rung{name: "Model.Predict per tuple", layer: "ml", min: 3, share: pass, call: func() error {
		for i := range ld.decoded {
			m0.Model.Predict(m0.W, &ld.decoded[i])
		}
		return nil
	}})
	if err != nil {
		return err
	}
	ld.set("ml.predict_ns_per_tuple", t.fast()*1e9/float64(len(ld.decoded)))

	t, err = ld.measure(rung{name: "Session.Exec PREDICT", layer: "db", min: 3, share: pass, call: func() error {
		res, err := ld.l.sess.Exec(predictSQL(predictLimit))
		ld.check(err == nil && len(res.Rows) == predictLimit, "PREDICT: %v", err)
		return err
	}})
	if err != nil {
		return err
	}
	ld.set("db.predict_ms", t.fast()*1e3)
	t, err = ld.measure(rung{name: "sqlparse.Parse PREDICT x100", layer: "sqlparse", min: 3, share: quick, call: parse100(predictSQL(predictLimit))})
	if err != nil {
		return err
	}
	ld.set("sqlparse.parse_predict_us", t.fast()*1e6/100)

	return nil
}

// serveRungs puts a server over the session: TRAIN, PREDICT and INSERT over
// the wire, then the end-to-end serve phase, traced.
func (ld *ladder) serveRungs() error {
	srv, err := serve.New(serve.Config{Addr: "127.0.0.1:0", Session: ld.l.sess})
	if err != nil {
		return err
	}
	defer srv.Close()
	cl, err := serve.Dial(srv.Addr())
	if err != nil {
		return err
	}
	defer cl.Close()

	t, err := ld.measure(rung{name: "Client.Train wait", layer: "serve", min: 1, share: stmt, call: func() error {
		job, err := cl.Train(ld.in.trainSQL(1_000_000), true, false)
		ok := err == nil && job.State == serve.JobDone
		ld.check(ok, "Client.Train: %v %+v", err, job)
		if err == nil && !ok {
			err = fmt.Errorf("job ended %s: %s", job.State, job.Error)
		}
		return err
	}})
	if err != nil {
		return err
	}
	ld.set("serve.train_job_ns_per_tuple", ld.perTuple(t, ld.w.Epochs))

	predict := func(limit int) func() error {
		return func() error {
			resp, err := cl.Predict(predictSQL(limit))
			want := limit
			if want > ld.tuples {
				want = ld.tuples
			}
			ld.check(err == nil && len(resp.Rows) == want, "Client.Predict LIMIT %d: %v", limit, err)
			return err
		}
	}
	t, err = ld.measure(rung{name: "Client.Predict warm", layer: "serve", min: 20, share: pass, call: predict(predictLimit)})
	if err != nil {
		return err
	}
	ld.set("serve.predict_warm_ms", t.fast()*1e3)
	t, err = ld.measure(rung{name: "Client.Predict LIMIT 1000", layer: "serve", min: 10, share: pass, call: predict(1000)})
	if err != nil {
		return err
	}
	ld.set("serve.predict_limit1000_ms", t.fast()*1e3)
	t, err = ld.measure(rung{name: "Client.Exec SHOW TABLES", layer: "serve", min: 50, share: quick, call: func() error {
		_, err := cl.Exec("SHOW TABLES")
		ld.check(err == nil, "SHOW TABLES: %v", err)
		return err
	}})
	if err != nil {
		return err
	}
	ld.set("serve.noop_roundtrip_us", t.fast()*1e6)
	t, err = ld.measure(rung{name: "Client.Predict cold", layer: "serve", min: 5, share: pass,
		before: func() error {
			_, err := cl.Exec(ld.in.insertSQL(ld.insertRng))
			ld.check(err == nil, "INSERT: %v", err)
			ld.tuples += insertRows
			return err
		},
		call: predict(predictLimit)})
	if err != nil {
		return err
	}
	ld.set("serve.predict_cold_ms", t.fast()*1e3)

	// The top rung is the end-to-end serve phase. It runs in four slices,
	// alternately without spans and with, which prices the harness's tracing.
	c, err := ld.dial(srv.Addr(), 0, ld.w.InsertEvery, ld.tuples, true)
	if err != nil {
		return err
	}
	defer c.cl.Close()
	var untraced, traced []opRec
	id := ld.tr.begin("serve phase", "serve", 0)
	for slice := 0; slice < 4; slice++ {
		c.ops = nil
		if slice%2 == 0 {
			c.serveFor(ld.budget(0.05), nil, id)
			untraced = append(untraced, c.ops...)
		} else {
			c.serveFor(ld.budget(0.05), ld.tr, id)
			traced = append(traced, c.ops...)
		}
	}
	ld.tr.end(id)
	c.cl.Close()
	ld.tuples += c.acked
	ld.set("process.trace_overhead_us", (percentile(latenciesMs(traced, opWarm), fastQuantile)-percentile(latenciesMs(untraced, opWarm), fastQuantile))*1e3)
	all := append(untraced, traced...)
	warm, inserts := latenciesMs(all, opWarm), latenciesMs(all, opInsert)
	if len(warm) == 0 || len(inserts) == 0 {
		return fmt.Errorf("the serve phase completed %d warm PREDICTs and %d INSERTs; give the run more -seconds", len(warm), len(inserts))
	}
	ld.set("serve.predict_p50_ms", percentile(warm, 0.50))
	ld.set("serve.predict_p95_ms", percentile(warm, 0.95))
	ld.set("serve.predict_p99_ms", percentile(warm, 0.99))
	ld.set("serve.insert_p50_ms", percentile(inserts, 0.50))
	ld.set("serve.insert_p99_ms", percentile(inserts, 0.99))

	// Two connections at once: what the catalog lock, the cache mutex and a
	// second processor do to throughput. The gated pass never does this.
	id = ld.tr.begin("2 connections, PREDICT only", "serve", 0)
	ops, _, elapsed, err := ld.serveTwo(srv.Addr(), never, ld.budget(0.05), ld.tuples, id)
	ld.tr.end(id)
	if err != nil {
		return err
	}
	ld.set("serve.predict_2conn_per_s", float64(ops)/elapsed.Seconds())
	id = ld.tr.begin("2 connections, PREDICT and INSERT", "serve", 0)
	_, acked, elapsed, err := ld.serveTwo(srv.Addr(), ld.w.InsertEvery, ld.budget(0.05), ld.tuples, id)
	ld.tr.end(id)
	if err != nil {
		return err
	}
	ld.tuples += acked
	ld.set("serve.mixed_2conn_tuples_per_s", float64(acked)/elapsed.Seconds())
	cl.Close()
	srv.Close()

	return nil
}

// insertRungs climbs INSERT from Table.AppendTuples to Session.Exec with
// the WAL, the server closed.
func (ld *ladder) insertRungs() error {
	scratch := storage.NewEmpty(iosim.NewDevice(iosim.RAM, iosim.NewClock()), "scratch", ld.tab.Task(), ld.w.Features, ld.w.Classes,
		storage.Options{BlockSize: 64 << 10})
	rows := make([]data.Tuple, insertRows)
	for i := range rows {
		class := ld.insertRng.Intn(ld.w.Classes)
		rows[i] = data.Tuple{Label: ld.in.label(class), Dense: ld.in.row(ld.insertRng, class)}
	}
	var raws []storage.RawBlock
	t, err := ld.measure(rung{name: "Table.AppendTuples x20", layer: "storage", min: 20, share: quick, call: func() error {
		var err error
		raws, err = scratch.AppendTuples(rows)
		return err
	}})
	if err != nil {
		return err
	}
	ld.set("storage.append_tuples_us", t.fast()*1e6)

	wal, _, err := storage.OpenWAL(filepath.Join(ld.l.dir, "scratch.log"))
	if err != nil {
		return err
	}
	defer wal.Close()
	payload := storage.EncodeBlockPayload("t", raws[0])
	appendRecord := func() error {
		_, err := wal.Append(storage.WALAppendBlock, payload)
		return err
	}
	t, err = ld.measure(rung{name: "WAL.Append x100", layer: "storage", min: 3, share: quick, call: func() error {
		for i := 0; i < 100; i++ {
			if err := appendRecord(); err != nil {
				return err
			}
		}
		return nil
	}})
	if err != nil {
		return err
	}
	ld.set("storage.wal_append_us", t.fast()*1e6/100)
	t, err = ld.measure(rung{name: "WAL.Sync", layer: "storage", min: 20, share: pass, before: appendRecord, call: wal.Sync})
	if err != nil {
		return err
	}
	ld.set("storage.wal_sync_us_p50", percentile(t.secs, 0.5)*1e6)

	bytesBefore, syncsBefore := ld.l.wal.bytes.Load(), ld.l.wal.syncs.Load()
	t, err = ld.measure(rung{name: "Session.Exec INSERT", layer: "db", min: 20, share: pass, call: ld.insertCall(ld.l.sess)})
	if err != nil {
		return err
	}
	ld.tuples += insertRows * len(t.secs)
	ld.set("db.insert_us", t.fast()*1e6)
	ld.set("storage.wal_syncs_per_insert", float64(ld.l.wal.syncs.Load()-syncsBefore)/float64(len(t.secs)))
	ld.set("storage.wal_bytes_per_insert", float64(ld.l.wal.bytes.Load()-bytesBefore)/float64(len(t.secs)))
	t, err = ld.measure(rung{name: "sqlparse.Parse INSERT x100", layer: "sqlparse", min: 3, share: quick, call: parse100(ld.in.insertSQL(ld.insertRng))})
	if err != nil {
		return err
	}
	ld.set("sqlparse.parse_insert_us", t.fast()*1e6/100)

	return nil
}

// recoveryRungs closes the session and restarts from its WAL directory.
func (ld *ladder) recoveryRungs() error {
	ld.l.sess.Close()
	info, err := os.Stat(db.WALPath(ld.l.walDir()))
	if err != nil {
		return err
	}
	walMB := float64(info.Size()) / 1e6
	ld.set("db.wal_mb", walMB)
	var reopened *db.Session
	t, err := ld.measure(rung{name: "Session.OpenWAL", layer: "db", min: 3, share: pass,
		before: func() error {
			if reopened != nil {
				return reopened.Close()
			}
			return nil
		},
		call: func() error {
			var err error
			reopened, _, err = ld.reopen(ld.l, ld.tuples)
			return err
		}})
	if err != nil {
		return err
	}
	defer reopened.Close()
	ld.set("db.recover_ms", t.fast()*1e3)
	ld.set("db.recover_mb_per_s", walMB/t.fast())
	t, err = ld.measure(rung{name: "Session.Checkpoint", layer: "db", min: 2, share: quick, call: func() error {
		_, err := reopened.Checkpoint()
		ld.check(err == nil, "CHECKPOINT: %v", err)
		return err
	}})
	if err != nil {
		return err
	}
	ld.set("db.checkpoint_ms", t.fast()*1e3)
	// A restart from the checkpoint alone must find every tuple too.
	reopened.Close()
	s, _, err := ld.reopen(ld.l, ld.tuples)
	if err != nil {
		return err
	}
	s.Close()

	return nil
}

func (ld *ladder) processRungs() error {
	rss, ok := peakRSSMB()
	if !ok {
		return fmt.Errorf("process.peak_rss_mb: VmHWM not found in /proc/self/status")
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	ld.set("process.peak_rss_mb", rss)
	ld.set("process.alloc_mb", float64(ms.TotalAlloc)/1e6)
	ld.set("process.gc_pause_ms", float64(ms.PauseTotalNs)/1e6)
	return nil
}

// parse100 parses one statement a hundred times, so one call is long
// enough to time.
func parse100(sql string) func() error {
	return func() error {
		for i := 0; i < 100; i++ {
			if _, err := sqlparse.Parse(sql); err != nil {
				return err
			}
		}
		return nil
	}
}
