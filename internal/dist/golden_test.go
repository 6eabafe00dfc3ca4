package dist

import (
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"testing"
	"time"

	"corgipile/internal/iosim"
)

// goldenRun trains one cell of the golden grid and renders everything the
// run produced as one line: an FNV-1a hash of the final weights' bits, the
// final clock, and every epoch point (AvgLoss and Seconds print in the
// shortest form that round-trips, so the comparison is bit-exact). The line
// still says crashes=0 and lost=false, as it did when dist injected worker
// crashes, so the literals compare byte for byte.
func goldenRun(t *testing.T, workers int, mode string) string {
	t.Helper()
	cfg := gridConfig(workers, mode)
	cfg.Clock = iosim.NewClock()
	cfg.BlockReadCost = 2 * time.Millisecond
	cfg.SyncCost = time.Millisecond
	res, err := Train(clusteredDS(2000), cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	for _, w := range res.W {
		var b [8]byte
		for i, bits := 0, math.Float64bits(w); i < 8; i++ {
			b[i] = byte(bits >> (8 * i))
		}
		h.Write(b[:])
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "w=%016x crashes=0 clock=%d lost=false", h.Sum64(), int64(cfg.Clock.Now()))
	for _, p := range res.Points {
		fmt.Fprintf(&sb, " | %v %d %v", p.AvgLoss, p.Tuples, p.Seconds)
	}
	return sb.String()
}

// TestGolden pins dist.Train bit for bit — weights, loss trace, tuples,
// simulated seconds and final clock — over workers × shuffle mode. The
// literals were captured from the commit that set the worker buffer policy
// (DESIGN.md "Buffer policy"); the refactor onto core.Loop and the removal of
// crash injection that followed left them untouched.
func TestGolden(t *testing.T) {
	for _, workers := range []int{1, 2, 5, 8} {
		for _, mode := range []string{"corgipile", "block-only", "no-shuffle"} {
			name := fmt.Sprintf("%d/%s/crash=false", workers, mode)
			got := goldenRun(t, workers, mode)
			if want, ok := golden[name]; !ok || got != want {
				t.Errorf("%s:\n got  %s\n want %s", name, got, want)
			}
		}
	}
}

var golden = map[string]string{
	"1/corgipile/crash=false":  "w=1fa52e2b8d1442bc crashes=0 clock=468360000 lost=false | 0.6489067936752082 2000 0.15612 | 0.4376790633867423 2000 0.31224 | 0.41220239287764343 2000 0.46836",
	"1/block-only/crash=false": "w=7cf584aa2b0d3103 crashes=0 clock=468000000 lost=false | 0.6594330117990621 2000 0.156 | 0.4394665227725012 2000 0.312 | 0.414751284426599 2000 0.468",
	"1/no-shuffle/crash=false": "w=a3990f027f1a94bb crashes=0 clock=468000000 lost=false | 0.639498396864207 2000 0.156 | 0.4416075771963821 2000 0.312 | 0.4209717819303882 2000 0.468",
	"2/corgipile/crash=false":  "w=9941ee62ddb4a0eb crashes=0 clock=268702400 lost=false | 0.649219540476238 2000 0.0895656 | 0.43797448528488103 2000 0.1791368 | 0.4119919460150128 2000 0.2687024",
	"2/block-only/crash=false": "w=d5288cb46782b2e4 crashes=0 clock=268520000 lost=false | 0.6532828768061302 2000 0.089505 | 0.44095768958083414 2000 0.179015 | 0.41572086410991954 2000 0.26852",
	"2/no-shuffle/crash=false": "w=34b9dc74cee9b893 crashes=0 clock=268515000 lost=false | 0.6446564116546157 2000 0.089505 | 0.4351139130298262 2000 0.17901 | 0.4109616400338994 2000 0.268515",
	"5/corgipile/crash=false":  "w=e3a7af9a0d8318b8 crashes=0 clock=147705600 lost=false | 0.6459873113132724 2000 0.0492352 | 0.43463853365693794 2000 0.0984704 | 0.4121981185693197 2000 0.1477056",
	"5/block-only/crash=false": "w=94064cc48e86cba9 crashes=0 clock=147630000 lost=false | 0.6476053845965889 2000 0.04921 | 0.4384723028338241 2000 0.09842 | 0.4133644233667242 2000 0.14763",
	"5/no-shuffle/crash=false": "w=6f0b89f0147695e5 crashes=0 clock=147630000 lost=false | 0.6468119325835574 2000 0.04921 | 0.4363162567649707 2000 0.09842 | 0.4132695858449983 2000 0.14763",
	"8/corgipile/crash=false":  "w=85e8ca7b81c0e2e4 crashes=0 clock=117453600 lost=false | 0.651144376375307 2000 0.0391512 | 0.43740420841415595 2000 0.0783024 | 0.41198880754214684 2000 0.1174536",
	"8/block-only/crash=false": "w=f3d70f3b1da1b025 crashes=0 clock=117405000 lost=false | 0.651551765532018 2000 0.039135 | 0.43739568271884144 2000 0.07827 | 0.41139956514132164 2000 0.117405",
	"8/no-shuffle/crash=false": "w=e3a375bf15552616 crashes=0 clock=117405000 lost=false | 0.6484516544175907 2000 0.039135 | 0.4365582001592074 2000 0.07827 | 0.41143888820676666 2000 0.117405",
}
