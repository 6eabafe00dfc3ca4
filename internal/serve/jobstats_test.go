package serve

import (
	"strconv"
	"testing"

	"corgipile/internal/obs"
)

// shortTrain is a TRAIN statement that finishes in well under a second.
func shortTrain(model string) string {
	return `SELECT * FROM t TRAIN BY svm MODEL ` + model +
		` WITH learning_rate=0.05, max_epoch_num=2, seed=7`
}

func TestJobStatsOverWire(t *testing.T) {
	srv := testServer(t, Config{})
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	st, err := c.Train(shortTrain("m_stats"), true, false)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != JobDone {
		t.Fatalf("train finished in state %q", st.State)
	}

	// Plain status: no stats block, so existing clients and the golden
	// transcript see an unchanged response shape.
	plain, err := c.Status(st.ID, false)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Stats != nil {
		t.Fatalf("status without stats=true carried %+v", plain.Stats)
	}

	full, err := c.StatusStats(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	s := full.Stats
	if s == nil {
		t.Fatal("status with stats=true returned no stats block")
	}
	if s.QueueWaitMs < 0 || s.WallMs <= 0 {
		t.Fatalf("queue_wait_ms=%v wall_ms=%v, want non-negative wait and positive wall", s.QueueWaitMs, s.WallMs)
	}
	if s.Tuples <= 0 || s.Blocks <= 0 {
		t.Fatalf("tuples=%d blocks=%d, want both positive after a 2-epoch train", s.Tuples, s.Blocks)
	}
	if s.BytesRead <= 0 {
		t.Fatalf("bytes_read=%d, want positive (blocks=%d × avg block size)", s.BytesRead, s.Blocks)
	}
	if s.CPUMs <= 0 {
		t.Fatalf("cpu_ms=%v, want positive gradient time", s.CPUMs)
	}
	if s.PeakBufferOccupancy <= 0 || s.PeakBufferOccupancy > 1 {
		t.Fatalf("peak_buffer_occupancy=%v, want in (0,1]", s.PeakBufferOccupancy)
	}

	// The same accounting surfaces in the corgi_job_stats system table.
	res, err := c.Exec(`SELECT id, state, tuples, bytes_read FROM corgi_job_stats WHERE id = '` + st.ID + `'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("corgi_job_stats rows = %v, want the finished job", res.Rows)
	}
	row := res.Rows[0]
	if row[1] != string(JobDone) {
		t.Fatalf("corgi_job_stats state = %q, want done", row[1])
	}
	tuples, err := strconv.ParseInt(row[2], 10, 64)
	if err != nil || tuples != s.Tuples {
		t.Fatalf("corgi_job_stats tuples = %q, want %d", row[2], s.Tuples)
	}
}

func TestQueuedJobStatsReportQueueWait(t *testing.T) {
	// One worker, one slow job: the second submission sits queued, and its
	// stats block is all queue wait — no wall/CPU figures yet.
	srv := testServer(t, Config{Workers: 1, SessionMax: 2})
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	slow, err := c.Train(longTrain("hog"), false, false)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c, slow.ID, JobRunning)
	queued, err := c.Train(longTrain("waiter"), false, false)
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.StatusStats(queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != JobQueued || st.Stats == nil {
		t.Fatalf("second job state=%q stats=%v, want queued with stats", st.State, st.Stats)
	}
	if st.Stats.WallMs != 0 || st.Stats.Tuples != 0 {
		t.Fatalf("queued job reports execution figures: %+v", st.Stats)
	}
	if _, err := c.Cancel(queued.ID, true); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Cancel(slow.ID, true); err != nil {
		t.Fatal(err)
	}
}

// TestServePredictHistogram pins the serve.predict latency histogram:
// every predict lands one observation, so /metrics and corgi_metrics have
// quantiles to report. The server runs without telemetry, and its p95
// still reads over the wire through corgi_metrics.
func TestServePredictHistogram(t *testing.T) {
	srv := testServer(t, Config{})
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 4
	for i := 0; i < n; i++ {
		if _, err := c.Predict(`SELECT * FROM t PREDICT BY warm LIMIT 1`); err != nil {
			t.Fatal(err)
		}
	}
	snap := srv.reg.Snapshot()
	h, ok := snap.Hists[obs.ServePredict]
	if !ok || h.Count != n {
		t.Fatalf("serve.predict histogram count = %+v, want %d observations", h, n)
	}
	if q := h.Quantile(0.95); q <= 0 {
		t.Fatalf("serve.predict p95 = %v, want positive", q)
	}
	res, err := c.Exec(`SELECT kind, value FROM corgi_metrics WHERE name = 'serve.predict_p95'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != "histogram" {
		t.Fatalf("corgi_metrics serve.predict_p95 rows = %v, want one histogram row", res.Rows)
	}
	if v, err := strconv.ParseFloat(res.Rows[0][1], 64); err != nil || v <= 0 {
		t.Fatalf("corgi_metrics serve.predict_p95 = %q, want a positive number", res.Rows[0][1])
	}
}

// TestJobFeedReportsBuffer: a CorgiPile job's private /run?job= feed
// carries the shuffle buffer's fill level, though no telemetry server
// serves the job's own registry.
func TestJobFeedReportsBuffer(t *testing.T) {
	srv := testServer(t, Config{})
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st, err := c.Train(shortTrain("m_feed")+`, shuffle='corgipile'`, true, false)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != JobDone {
		t.Fatalf("train finished in state %q", st.State)
	}
	run, n := srv.feedFor(st.ID).Status()
	if n == 0 {
		t.Fatal("job feed published nothing")
	}
	if run.BufferTuples <= 0 {
		t.Fatalf("buffer_tuples=%d, want > 0", run.BufferTuples)
	}
	if run.BufferOccupancy <= 0 || run.BufferOccupancy > 1 {
		t.Fatalf("buffer_occupancy=%v, want in (0,1]", run.BufferOccupancy)
	}
}
