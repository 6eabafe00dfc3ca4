package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"corgipile/internal/db"
	"corgipile/internal/serve"
	"corgipile/internal/storage"
)

// countingSyncer sits in the WAL's write path and counts what goes through
// it: the bytes of every record and every fsync.
type countingSyncer struct {
	ws    storage.WriteSyncer
	bytes atomic.Int64
	syncs atomic.Int64
}

func (c *countingSyncer) Write(p []byte) (int, error) {
	n, err := c.ws.Write(p)
	c.bytes.Add(int64(n))
	return n, err
}

func (c *countingSyncer) Sync() error {
	c.syncs.Add(1)
	return c.ws.Sync()
}

// loaded is a session holding the workload's table, as a user would have
// after writing a LIBSVM file and running CREATE TABLE ... FROM on it.
type loaded struct {
	dir  string // holds the input file and the WAL directory
	file string
	sess *db.Session
	wal  *countingSyncer // nil for a session without a WAL
}

func (l *loaded) walDir() string { return filepath.Join(l.dir, "wal") }

// close releases the session and removes everything it wrote.
func (l *loaded) close() {
	if l.sess != nil {
		l.sess.Close()
	}
	os.RemoveAll(l.dir)
}

// run is one invocation's state: the inputs, the pass/fail tally of every
// operation, and the tracer (nil in the end-to-end pass).
type run struct {
	in      *inputs
	seconds float64
	tmp     string
	tr      *tracer

	attempted atomic.Int64
	failed    atomic.Int64
	mu        sync.Mutex
	failures  []string // first few, for the report
}

// check counts one operation and, when it went wrong, why.
func (r *run) check(ok bool, format string, args ...any) bool {
	r.attempted.Add(1)
	if ok {
		return true
	}
	r.failed.Add(1)
	r.mu.Lock()
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
	r.mu.Unlock()
	return false
}

// budget is the given share of the run's measuring time.
func (r *run) budget(share float64) time.Duration {
	return time.Duration(share * r.seconds * float64(time.Second))
}

// load generates the inputs, writes the file and loads it into a fresh
// session. With withWAL the session logs to a WAL directory beside the file
// at the program's default flush policy, an fsync per statement.
func (r *run) load(withWAL bool) (*loaded, error) {
	if err := os.MkdirAll(r.tmp, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(r.tmp, r.in.w.Name+"-")
	if err != nil {
		return nil, err
	}
	l := &loaded{dir: dir, file: filepath.Join(dir, "t.libsvm"), sess: db.NewSession()}
	if err := r.in.writeFile(l.file); err != nil {
		l.close()
		return nil, err
	}
	if withWAL {
		_, err := l.sess.OpenWALOptions(l.walDir(), db.WALOptions{
			WrapSyncer: func(ws storage.WriteSyncer) storage.WriteSyncer {
				l.wal = &countingSyncer{ws: ws}
				return l.wal
			},
		})
		if err != nil {
			l.close()
			return nil, err
		}
	}
	_, err = l.sess.Exec(createSQL(l.file))
	if !r.check(err == nil, "CREATE TABLE: %v", err) {
		l.close()
		return nil, fmt.Errorf("create table: %w", err)
	}
	if got := tuplesOf(l.sess); got != r.in.w.Tuples {
		l.close()
		return nil, fmt.Errorf("table holds %d tuples after load, want %d", got, r.in.w.Tuples)
	}
	return l, nil
}

// tuplesOf counts table t's tuples; -1 when the session has no such table.
func tuplesOf(s *db.Session) int {
	e, ok := s.Table("t")
	if !ok {
		return -1
	}
	return e.Table.NumTuples()
}

// A run sets up at least minSetups times, and again while that has taken
// under setupBudget, up to maxSetups; setup_s is the median. The small
// tables load in a tenth of a second, where one slow fsync is a third of
// the figure, so they get more repeats.
const (
	minSetups   = 3
	maxSetups   = 9
	setupBudget = 1500 * time.Millisecond
)

// setUp loads the table repeatedly and keeps the last two sessions: one to
// TRAIN on, whose table never changes, and one to serve.
func (r *run) setUp() (trainSide, serveSide *loaded, setup sample, err error) {
	var secs []float64
	start := time.Now()
	for i := 0; i < minSetups || (i < maxSetups && time.Since(start) < setupBudget); i++ {
		if trainSide != nil {
			trainSide.close()
		}
		trainSide = serveSide
		t0 := time.Now()
		serveSide, err = r.load(true)
		if err != nil {
			if trainSide != nil {
				trainSide.close()
			}
			return nil, nil, sample{}, err
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return trainSide, serveSide, summarize(secs), nil
}

// trainer issues the workload's TRAIN statement and keeps what it measured.
// Every statement uses the same seed on an unchanged table, so each must
// return the loss column of the first, bit for bit.
type trainer struct {
	r         *run
	n         int       // statements issued
	secs      []float64 // wall time of each
	tuples    int       // tuples x epochs one statement consumes
	firstLoss []string
	// simSeconds and finalLoss are the first statement's, whose device
	// cache is cold.
	simSeconds float64
	finalLoss  float64
}

// statement runs one TRAIN on sess.
func (t *trainer) statement(sess *db.Session, parent int) error {
	r, i := t.r, t.n
	t.n++
	id := r.tr.begin("Session.Exec TRAIN", "db", parent)
	t0 := time.Now()
	res, err := sess.Exec(r.in.trainSQL(i))
	dur := time.Since(t0)
	r.tr.end(id)
	if !r.check(err == nil, "TRAIN m%d: %v", i, err) {
		return fmt.Errorf("train: %w", err)
	}
	if !r.check(len(res.Rows) == r.in.w.Epochs, "TRAIN m%d returned %d rows, want %d", i, len(res.Rows), r.in.w.Epochs) {
		return fmt.Errorf("train returned %d epoch rows", len(res.Rows))
	}
	// Columns: epoch, loss, accuracy, seconds, tuples.
	var loss []string
	tuples := 0
	for _, row := range res.Rows {
		loss = append(loss, row[1])
		n, _ := strconv.Atoi(row[4])
		tuples += n
	}
	last := res.Rows[len(res.Rows)-1]
	if i == 0 {
		t.firstLoss, t.tuples = loss, tuples
		t.finalLoss, _ = strconv.ParseFloat(last[1], 64)
		t.simSeconds, _ = strconv.ParseFloat(last[3], 64)
	}
	r.check(fmt.Sprint(loss) == fmt.Sprint(t.firstLoss) && tuples == t.tuples,
		"TRAIN m%d: loss column %v over %d tuples differs from the first, %v over %d", i, loss, tuples, t.firstLoss, t.tuples)
	acc, _ := strconv.ParseFloat(last[2], 64)
	r.check(acc >= r.in.w.AccFloor, "TRAIN m%d final accuracy %.4f below floor %.2f", i, acc, r.in.w.AccFloor)
	t.secs = append(t.secs, dur.Seconds())
	return nil
}

// runFor issues statements on sess until budget is spent, at least one.
func (t *trainer) runFor(sess *db.Session, budget time.Duration, parent int) error {
	start := time.Now()
	for {
		if err := t.statement(sess, parent); err != nil {
			return err
		}
		if time.Since(start) >= budget {
			return nil
		}
	}
}

// tuplesPerSec is the statement throughput at the fast quantile of statement
// times (see fastQuantile), with the quartiles of all statements beside it.
func (t *trainer) tuplesPerSec() sample {
	perSec := make([]float64, len(t.secs))
	for i, s := range t.secs {
		perSec[i] = float64(t.tuples) / s
	}
	out := summarize(perSec)
	out.Value = float64(t.tuples) / percentile(t.secs, fastQuantile)
	return out
}

// client is one closed-loop connection: it sends its next request when the
// previous one is answered. Every insertEvery-th request is an INSERT of
// insertRows tuples, the others are PREDICTs.
//
// The gated pass uses one client. The box's two processors behave like
// hyperthreads of a shared host core: with both busy each runs at 60% or at
// full speed depending on where the host put them that minute, which moved
// two-connection throughput by 40% between identical runs. One connection
// keeps one thread busy at a time, and makes "the first PREDICT after an
// INSERT" well defined. The ladder has two-connection rungs for contention.
type client struct {
	r    *run
	conn int
	cl   *serve.Client
	reqs *requests
	// tuples is the table's size when the client connected and acked the
	// tuples it has had acknowledged since. alone says no other client
	// writes, so every PREDICT must count exactly tuples+acked.
	tuples int
	acked  int
	alone  bool
	next   opKind // of the next PREDICT
	ops    []opRec
}

func (r *run) dial(addr string, conn, insertEvery, tuples int, alone bool) (*client, error) {
	cl, err := serve.Dial(addr)
	if err != nil {
		return nil, err
	}
	// A new connection's first PREDICT may find the cache empty.
	return &client{r: r, conn: conn, cl: cl, reqs: r.in.requests(conn, insertEvery), tuples: tuples, alone: alone, next: opCold}, nil
}

// serveFor sends requests until budget is spent.
func (c *client) serveFor(budget time.Duration, tr *tracer, parent int) {
	r := c.r
	start := time.Now()
	for time.Since(start) < budget {
		sql, insert := c.reqs.next()
		var resp *serve.Response
		var err error
		var id int
		t0 := time.Now()
		if insert {
			id = tr.begin("Client.Exec INSERT", "serve", parent)
			resp, err = c.cl.Exec(sql)
		} else {
			id = tr.begin("Client.Predict", "serve", parent)
			resp, err = c.cl.Predict(sql)
		}
		lat := time.Since(t0)
		tr.end(id)
		switch {
		case !r.check(err == nil, "conn %d request %d: %v", c.conn, c.reqs.n, err):
		case insert:
			c.ops = append(c.ops, opRec{kind: opInsert, lat: lat})
			c.acked += insertRows
			c.next = opCold
		default:
			c.ops = append(c.ops, opRec{kind: c.next, lat: lat})
			c.next = opWarm
			var seen int
			fmt.Sscanf(resp.Message, "PREDICT: %d rows", &seen)
			want := c.tuples + c.acked
			r.check(len(resp.Rows) == predictLimit && (seen == want || (!c.alone && seen > want)),
				"conn %d PREDICT returned %d rows over %d tuples, want %d rows over %d",
				c.conn, len(resp.Rows), seen, predictLimit, want)
		}
	}
}

// serveTwo runs two clients side by side for budget and returns the
// requests completed, the tuples acknowledged and the time it took.
func (r *run) serveTwo(addr string, insertEvery int, budget time.Duration, tuples, parent int) (ops, acked int, elapsed time.Duration, err error) {
	var cs [2]*client
	for i := range cs {
		if cs[i], err = r.dial(addr, i, insertEvery, tuples, false); err != nil {
			return 0, 0, 0, err
		}
		defer cs[i].cl.Close()
	}
	var wg sync.WaitGroup
	start := time.Now()
	for _, c := range cs {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			c.serveFor(budget, r.tr, parent)
		}(c)
	}
	wg.Wait()
	elapsed = time.Since(start)
	for _, c := range cs {
		ops += len(c.ops)
		acked += c.acked
	}
	return ops, acked, elapsed, nil
}

// reopen recovers the WAL directory into a fresh session, as a restart
// would, and checks that every acknowledged tuple is there.
func (r *run) reopen(l *loaded, want int) (*db.Session, time.Duration, error) {
	s := db.NewSession()
	t0 := time.Now()
	_, err := s.OpenWAL(l.walDir())
	dur := time.Since(t0)
	if !r.check(err == nil, "reopen: %v", err) {
		return nil, 0, fmt.Errorf("reopen: %w", err)
	}
	got := tuplesOf(s)
	r.check(got == want, "recovered %d tuples, want %d (initial %d + acknowledged inserts)", got, want, r.in.w.Tuples)
	return s, dur, nil
}

// rounds is how many times a run alternates between TRAIN and serving, so
// that every metric samples the whole run and a slow stretch of a few
// seconds cannot cover all of one metric's measurements.
const rounds = 6

// endToEnd runs the session script with tracing off and no obs attached by
// the harness, and returns every end-to-end metric.
func (r *run) endToEnd() (map[string]sample, error) {
	trainSide, serveSide, setup, err := r.setUp()
	if err != nil {
		return nil, err
	}
	defer trainSide.close()
	defer serveSide.close()
	w := r.in.w

	// The first TRAIN gives the serve side its model.
	tr := &trainer{r: r}
	if err := tr.statement(serveSide.sess, 0); err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Config{Addr: "127.0.0.1:0", Session: serveSide.sess})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	c, err := r.dial(srv.Addr(), 0, w.InsertEvery, w.Tuples, true)
	if err != nil {
		return nil, err
	}
	defer c.cl.Close()
	walBefore := serveSide.wal.bytes.Load()
	for round := 0; round < rounds; round++ {
		if err := tr.runFor(trainSide.sess, r.budget(w.TrainShare/rounds), 0); err != nil {
			return nil, err
		}
		c.serveFor(r.budget((1-w.TrainShare)/rounds), nil, 0)
	}
	walBytes := serveSide.wal.bytes.Load() - walBefore
	c.cl.Close()
	srv.Close()
	serveSide.sess.Close()

	s, _, err := r.reopen(serveSide, w.Tuples+c.acked)
	if err != nil {
		return nil, err
	}
	s.Close()

	warm, cold, inserts := latenciesMs(c.ops, opWarm), latenciesMs(c.ops, opCold), latenciesMs(c.ops, opInsert)
	if len(warm) < 3 || len(cold) < 3 || len(inserts) < 3 {
		return nil, fmt.Errorf("the serve phase completed %d warm and %d cold PREDICTs and %d INSERTs; give the run more -seconds",
			len(warm), len(cold), len(inserts))
	}
	exact := func(v float64) sample { return sample{Value: v, Q1: v, Q3: v, N: 1} }
	return map[string]sample{
		"setup_s":                 setup,
		"train_tuples_per_s":      tr.tuplesPerSec(),
		"train_sim_s":             exact(tr.simSeconds),
		"train_final_loss":        exact(tr.finalLoss),
		"predict_warm_p5_ms":      fast(warm),
		"predict_cold_p5_ms":      fast(cold),
		"insert_p5_ms":            fast(inserts),
		"wal_bytes_per_user_byte": exact(float64(walBytes) / float64(c.acked*w.Features*8)),
	}, nil
}
