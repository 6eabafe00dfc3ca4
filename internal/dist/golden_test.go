package dist

import (
	"errors"
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
// crash count, the final clock, whether the run was lost, and every epoch
// point (AvgLoss and Seconds print in the shortest form that round-trips, so
// the comparison is bit-exact).
func goldenRun(t *testing.T, workers int, mode string, crash bool) string {
	t.Helper()
	cfg := gridConfig(workers, mode)
	cfg.Clock = iosim.NewClock()
	cfg.BlockReadCost = 2 * time.Millisecond
	cfg.SyncCost = time.Millisecond
	if crash {
		cfg.Faults = &FaultPlan{Seed: 5, CrashProb: 0.4}
	}
	res, err := Train(clusteredDS(2000), cfg)
	if err != nil && !errors.Is(err, ErrWorkerLost) {
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
	fmt.Fprintf(&sb, "w=%016x crashes=%d clock=%d lost=%v", h.Sum64(),
		res.Faults.WorkerCrashes, int64(cfg.Clock.Now()), err != nil)
	for _, p := range res.Points {
		fmt.Fprintf(&sb, " | %v %d %v", p.AvgLoss, p.Tuples, p.Seconds)
	}
	return sb.String()
}

// TestGolden pins dist.Train bit for bit — weights, loss trace, tuples,
// simulated seconds, crash count and final clock — over workers × shuffle mode
// × faults. The literals were captured from the commit that set the worker
// buffer policy (DESIGN.md "Buffer policy"); the refactor onto core.Loop that
// followed left them untouched.
func TestGolden(t *testing.T) {
	for _, workers := range []int{1, 2, 5, 8} {
		for _, mode := range []string{"corgipile", "block-only", "no-shuffle"} {
			for _, crash := range []bool{false, true} {
				name := fmt.Sprintf("%d/%s/crash=%v", workers, mode, crash)
				got := goldenRun(t, workers, mode, crash)
				if want, ok := golden[name]; !ok || got != want {
					t.Errorf("%s:\n got  %s\n want %s", name, got, want)
				}
			}
		}
	}
}

var golden = map[string]string{
	"1/corgipile/crash=false":  "w=1fa52e2b8d1442bc crashes=0 clock=468360000 lost=false | 0.6489067936752082 2000 0.15612 | 0.4376790633867423 2000 0.31224 | 0.41220239287764343 2000 0.46836",
	"1/corgipile/crash=true":   "w=b1af31741334cf92 crashes=1 clock=357828500 lost=true | 0.6489067936752082 2000 0.15612",
	"1/block-only/crash=false": "w=7cf584aa2b0d3103 crashes=0 clock=468000000 lost=false | 0.6594330117990621 2000 0.156 | 0.4394665227725012 2000 0.312 | 0.414751284426599 2000 0.468",
	"1/block-only/crash=true":  "w=e6521aed0a075046 crashes=1 clock=355630500 lost=true | 0.6594330117990621 2000 0.156",
	"1/no-shuffle/crash=false": "w=a3990f027f1a94bb crashes=0 clock=468000000 lost=false | 0.639498396864207 2000 0.156 | 0.4416075771963821 2000 0.312 | 0.4209717819303882 2000 0.468",
	"1/no-shuffle/crash=true":  "w=dd014676fd166b3f crashes=1 clock=355630500 lost=true | 0.639498396864207 2000 0.156",
	"2/corgipile/crash=false":  "w=9941ee62ddb4a0eb crashes=0 clock=268702400 lost=false | 0.649219540476238 2000 0.0895656 | 0.43797448528488103 2000 0.1791368 | 0.4119919460150128 2000 0.2687024",
	"2/corgipile/crash=true":   "w=452ab848a27c6e31 crashes=2 clock=464708000 lost=false | 0.649219540476238 2000 0.0895656 | 0.4457037658652805 1657 0.2761368 | 0.41824011978105097 1853 0.464708",
	"2/block-only/crash=false": "w=d5288cb46782b2e4 crashes=0 clock=268520000 lost=false | 0.6532828768061302 2000 0.089505 | 0.44095768958083414 2000 0.179015 | 0.41572086410991954 2000 0.26852",
	"2/block-only/crash=true":  "w=b3f036474831864c crashes=2 clock=463520000 lost=false | 0.6532828768061302 2000 0.089505 | 0.43926454800709663 1657 0.276015 | 0.4208191171360253 1843 0.46352",
	"2/no-shuffle/crash=false": "w=34b9dc74cee9b893 crashes=0 clock=268515000 lost=false | 0.6446564116546157 2000 0.089505 | 0.4351139130298262 2000 0.17901 | 0.4109616400338994 2000 0.268515",
	"2/no-shuffle/crash=true":  "w=55326d47fe92f6e2 crashes=2 clock=462515000 lost=false | 0.6446564116546157 2000 0.089505 | 0.42466734807429585 1647 0.27501 | 0.4160658337067832 1843 0.462515",
	"5/corgipile/crash=false":  "w=e3a7af9a0d8318b8 crashes=0 clock=147705600 lost=false | 0.6459873113132724 2000 0.0492352 | 0.43463853365693794 2000 0.0984704 | 0.4121981185693197 2000 0.1477056",
	"5/corgipile/crash=true":   "w=a184f2b7e52a3f57 crashes=5 clock=643704600 lost=false | 0.646317473875355 1998 0.1492342 | 0.43018038101278194 1860 0.3974694 | 0.41556352314403083 1729 0.6437046",
	"5/block-only/crash=false": "w=94064cc48e86cba9 crashes=0 clock=147630000 lost=false | 0.6476053845965889 2000 0.04921 | 0.4384723028338241 2000 0.09842 | 0.4133644233667242 2000 0.14763",
	"5/block-only/crash=true":  "w=f41e78f00953fd40 crashes=5 clock=644629000 lost=false | 0.6479302102687045 1998 0.149209 | 0.43878911833955303 1860 0.397419 | 0.42718353847975515 1754 0.644629",
	"5/no-shuffle/crash=false": "w=6f0b89f0147695e5 crashes=0 clock=147630000 lost=false | 0.6468119325835574 2000 0.04921 | 0.4363162567649707 2000 0.09842 | 0.4132695858449983 2000 0.14763",
	"5/no-shuffle/crash=true":  "w=573cc300a7ece90c crashes=5 clock=644630000 lost=false | 0.6468119325835574 2000 0.14921 | 0.4382369561800522 1850 0.39742 | 0.42099610605454885 1754 0.64463",
	"8/corgipile/crash=false":  "w=85e8ca7b81c0e2e4 crashes=0 clock=117453600 lost=false | 0.651144376375307 2000 0.0391512 | 0.43740420841415595 2000 0.0783024 | 0.41198880754214684 2000 0.1174536",
	"8/corgipile/crash=true":   "w=4a538276a50fc807 crashes=8 clock=912453600 lost=false | 0.6590678782113438 1910 0.2381512 | 0.4468538684772059 1916 0.4763024 | 0.40407201260909953 1682 0.9124536",
	"8/block-only/crash=false": "w=f3d70f3b1da1b025 crashes=0 clock=117405000 lost=false | 0.651551765532018 2000 0.039135 | 0.43739568271884144 2000 0.07827 | 0.41139956514132164 2000 0.117405",
	"8/block-only/crash=true":  "w=6c103fa9ce7a7c3e crashes=8 clock=912405000 lost=false | 0.6585230789454039 1910 0.238135 | 0.44482677211295296 1913 0.47627 | 0.41137936020984206 1692 0.912405",
	"8/no-shuffle/crash=false": "w=e3a375bf15552616 crashes=0 clock=117405000 lost=false | 0.6484516544175907 2000 0.039135 | 0.4365582001592074 2000 0.07827 | 0.41143888820676666 2000 0.117405",
	"8/no-shuffle/crash=true":  "w=93ae1782a4c09ea7 crashes=8 clock=912405000 lost=false | 0.6591443993128807 1910 0.238135 | 0.4382013670008889 1916 0.47627 | 0.40514264085220514 1682 0.912405",
}
