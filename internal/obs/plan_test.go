package obs

import (
	"net/http"
	"strings"
	"testing"
	"time"
)

func samplePlan() *PlanStats {
	return &PlanStats{
		Name: "SGD", Detail: "model=svm optimizer=sgd epochs=2 batch=1",
		Rows: 400, Loops: 2, Epoch: 2,
		SelfSimSeconds: 0.25, TotalSimSeconds: 1.0,
		Children: []*PlanStats{{
			Name: "TupleShuffle", Detail: "buffer=20 tuples ≈ 10%, double-buffer",
			Rows: 400, Loops: 2,
			SelfSimSeconds: 0.25, TotalSimSeconds: 0.75,
			BufferPeak: 20, BufferCap: 20,
			Children: []*PlanStats{{
				Name: "BlockShuffle", Detail: "blocks=10, reshuffled per epoch",
				Rows: 400, Loops: 2,
				SelfSimSeconds: 0.5, TotalSimSeconds: 0.5,
				BytesRead: 4096, CacheHitBytes: 1024, BlocksRead: 20,
			}},
		}},
	}
}

func TestPlanStatsTextModes(t *testing.T) {
	p := samplePlan()
	static := p.Text(false)
	want := "SGD (model=svm optimizer=sgd epochs=2 batch=1)\n" +
		"└─ TupleShuffle (buffer=20 tuples ≈ 10%, double-buffer)\n" +
		"   └─ BlockShuffle (blocks=10, reshuffled per epoch)\n"
	if static != want {
		t.Fatalf("static text:\n got: %q\nwant: %q", static, want)
	}
	analyzed := p.Text(true)
	for _, needle := range []string{
		"(actual: rows=400 loops=2", "self=250.00ms total=1.00s",
		"read=4.0KB cache_hit=1.0KB blocks=20", "buffer_peak=20/20",
	} {
		if !strings.Contains(analyzed, needle) {
			t.Fatalf("analyze text missing %q:\n%s", needle, analyzed)
		}
	}
	// The telescoping invariant holds on the sample by construction.
	if sum := p.SelfSimSum(); sum != p.TotalSimSeconds {
		t.Fatalf("SelfSimSum = %v, want %v", sum, p.TotalSimSeconds)
	}
	// Clone is deep: mutating the copy leaves the original alone.
	c := p.Clone()
	c.Children[0].Rows = 999
	if p.Children[0].Rows != 400 {
		t.Fatal("Clone shares child nodes")
	}
}

func TestRunFeedPlanTopic(t *testing.T) {
	f := NewRunFeed()
	ch, cancel := f.SubscribePlan()
	defer cancel()
	f.PublishPlan(samplePlan())
	select {
	case msg := <-ch:
		if !strings.Contains(string(msg), `"name":"SGD"`) {
			t.Fatalf("unexpected plan payload %s", msg)
		}
	case <-time.After(time.Second):
		t.Fatal("no plan update delivered")
	}
	p, seq := f.PlanStatus()
	if p == nil || p.Epoch != 2 || seq != 1 {
		t.Fatalf("PlanStatus = %+v seq=%d", p, seq)
	}

	// The run topic is independent: a plan publish does not wake /run
	// subscribers and vice versa.
	runCh, runCancel := f.Subscribe()
	defer runCancel()
	f.PublishPlan(samplePlan())
	select {
	case msg := <-runCh:
		t.Fatalf("plan publish leaked into the run topic: %s", msg)
	default:
	}

	// Close shuts the plan topic down alongside the run topic.
	f.Close()
	late, _ := f.SubscribePlan()
	if msg := <-late; !strings.Contains(string(msg), `"name":"SGD"`) {
		t.Fatalf("late subscriber's first message %s, want the current plan", msg)
	}
	if _, ok := <-late; ok {
		t.Fatal("SubscribePlan after Close must return a closed channel")
	}

	// Nil feed and nil plan are safe no-ops.
	var nilFeed *RunFeed
	nilFeed.PublishPlan(samplePlan())
	if p, seq := nilFeed.PlanStatus(); p != nil || seq != 0 {
		t.Fatal("nil feed PlanStatus should be empty")
	}
	NewRunFeed().PublishPlan(nil)
}

func TestServeRunPlan(t *testing.T) {
	feed := NewRunFeed()
	srv := startServer(t, New(), feed)

	if code, body, _ := get(t, srv.URL()+"/run/plan"); code != http.StatusNotFound ||
		!strings.Contains(body, "no plan published") {
		t.Fatalf("/run/plan before publish: status %d body %q", code, body)
	}

	feed.PublishPlan(samplePlan())
	code, body, _ := get(t, srv.URL()+"/run/plan")
	if code != http.StatusOK {
		t.Fatalf("/run/plan status %d", code)
	}
	for _, want := range []string{
		"epoch 2\n", "SGD (model=svm", "└─ TupleShuffle", "(actual: rows=400",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/run/plan missing %q:\n%s", want, body)
		}
	}

	code, body, hdr := get(t, srv.URL()+"/run/plan?format=json")
	if code != http.StatusOK || !strings.Contains(hdr.Get("Content-Type"), "application/json") {
		t.Fatalf("/run/plan?format=json status %d type %q", code, hdr.Get("Content-Type"))
	}
	for _, want := range []string{`"name": "SGD"`, `"blocks_read": 20`} {
		if !strings.Contains(body, want) {
			t.Fatalf("/run/plan json missing %s:\n%s", want, body)
		}
	}
}

func TestServeRunPlanWithoutFeed(t *testing.T) {
	srv := startServer(t, New(), nil)
	if code, _, _ := get(t, srv.URL()+"/run/plan"); code != http.StatusNotFound {
		t.Fatalf("/run/plan without feed: status %d, want 404", code)
	}
}

func TestServeRunPlanStream(t *testing.T) {
	feed := NewRunFeed()
	srv := startServer(t, New(), feed)
	feed.PublishPlan(samplePlan())

	resp, err := http.Get(srv.URL() + "/run/plan?stream=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/event-stream") {
		t.Fatalf("stream content type %q", ct)
	}
	buf := make([]byte, 4096)
	n, err := resp.Body.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	first := string(buf[:n])
	if !strings.HasPrefix(first, "data: ") || !strings.Contains(first, `"name":"SGD"`) {
		t.Fatalf("unexpected SSE frame %q", first)
	}
}
