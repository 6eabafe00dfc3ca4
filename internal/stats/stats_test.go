package stats

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

func clusteredLabels(n int) []float64 {
	labels := make([]float64, n)
	for i := range labels {
		if i < n/2 {
			labels[i] = -1
		} else {
			labels[i] = 1
		}
	}
	return labels
}

func interleavedLabels(n int) []float64 {
	labels := make([]float64, n)
	for i := range labels {
		if i%2 == 0 {
			labels[i] = -1
		} else {
			labels[i] = 1
		}
	}
	return labels
}

func TestLabelWindowsCounts(t *testing.T) {
	wins := LabelWindows(clusteredLabels(100), 20)
	if len(wins) != 5 {
		t.Fatalf("windows = %d, want 5", len(wins))
	}
	if wins[0].Neg != 20 || wins[0].Pos != 0 {
		t.Fatalf("first window %+v, want all negative", wins[0])
	}
	if wins[4].Neg != 0 || wins[4].Pos != 20 {
		t.Fatalf("last window %+v, want all positive", wins[4])
	}
}

func TestLabelWindowsPartialTail(t *testing.T) {
	wins := LabelWindows(make([]float64, 25), 20)
	if len(wins) != 2 || wins[1].Pos != 5 {
		t.Fatalf("tail window wrong: %+v", wins)
	}
}

func TestLabelWindowsDefaultWindow(t *testing.T) {
	wins := LabelWindows(make([]float64, 40), 0)
	if len(wins) != 2 {
		t.Fatalf("default window should be 20, got %d windows", len(wins))
	}
}

func TestLabelMixScoreExtremes(t *testing.T) {
	clustered := LabelMixScore(clusteredLabels(1000), 20)
	mixed := LabelMixScore(interleavedLabels(1000), 20)
	if clustered > 0.1 {
		t.Fatalf("clustered mix score = %.3f, want ~0", clustered)
	}
	if mixed < 0.9 {
		t.Fatalf("interleaved mix score = %.3f, want ~1", mixed)
	}
}

func TestLabelMixScoreRandomHigh(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	labels := clusteredLabels(2000)
	rng.Shuffle(len(labels), func(i, j int) { labels[i], labels[j] = labels[j], labels[i] })
	if score := LabelMixScore(labels, 20); score < 0.7 {
		t.Fatalf("random shuffle mix score = %.3f, want >= 0.7", score)
	}
}

func TestLabelMixScoreSingleClass(t *testing.T) {
	labels := make([]float64, 100)
	for i := range labels {
		labels[i] = 1
	}
	if LabelMixScore(labels, 20) != 1 {
		t.Fatal("single-class stream is trivially mixed")
	}
	if LabelMixScore(nil, 20) != 0 {
		t.Fatal("empty stream scores 0")
	}
}

func TestOrderCorrelationExtremes(t *testing.T) {
	n := 1000
	identity := make([]int64, n)
	for i := range identity {
		identity[i] = int64(i)
	}
	if c := OrderCorrelation(identity); math.Abs(c-1) > 1e-9 {
		t.Fatalf("identity correlation = %v, want 1", c)
	}
	reversed := make([]int64, n)
	for i := range reversed {
		reversed[i] = int64(n - 1 - i)
	}
	if c := OrderCorrelation(reversed); math.Abs(c+1) > 1e-9 {
		t.Fatalf("reversed correlation = %v, want -1", c)
	}
	rng := rand.New(rand.NewSource(2))
	shuffled := append([]int64(nil), identity...)
	rng.Shuffle(n, func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	if c := OrderCorrelation(shuffled); math.Abs(c) > 0.1 {
		t.Fatalf("random correlation = %v, want ~0", c)
	}
}

func TestOrderCorrelationDegenerate(t *testing.T) {
	if OrderCorrelation(nil) != 1 || OrderCorrelation([]int64{5}) != 1 {
		t.Fatal("degenerate inputs should score 1")
	}
}

func TestMeanDisplacement(t *testing.T) {
	identity := []int64{0, 1, 2, 3}
	if MeanDisplacement(identity) != 0 {
		t.Fatal("identity displacement must be 0")
	}
	swapped := []int64{3, 2, 1, 0}
	if MeanDisplacement(swapped) == 0 {
		t.Fatal("reversed displacement must be positive")
	}
	if MeanDisplacement(nil) != 0 {
		t.Fatal("empty displacement must be 0")
	}
}

func TestMeanDisplacementRandomNearThird(t *testing.T) {
	n := 10000
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = int64(i)
	}
	rng := rand.New(rand.NewSource(3))
	rng.Shuffle(n, func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	d := MeanDisplacement(ids)
	if d < 0.3 || d > 0.37 {
		t.Fatalf("uniform-shuffle displacement = %.3f, want ~1/3", d)
	}
}

func TestTableRendering(t *testing.T) {
	tab := NewTable("Demo", "name", "value")
	tab.AddRow("alpha", 1.23456)
	tab.AddRow("b", 42)
	var sb strings.Builder
	if err := tab.Write(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "## Demo") || !strings.Contains(out, "alpha") || !strings.Contains(out, "1.235") {
		t.Fatalf("table output malformed:\n%s", out)
	}
	if len(tab.rows) != 2 {
		t.Fatalf("rows = %d", len(tab.rows))
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// Header, separator, two rows, plus title.
	if len(lines) != 5 {
		t.Fatalf("table has %d lines, want 5:\n%s", len(lines), out)
	}
}

func TestSparkline(t *testing.T) {
	s := Sparkline([]float64{0, 0.5, 1})
	if len([]rune(s)) != 3 {
		t.Fatalf("sparkline runes = %q", s)
	}
	if Sparkline(nil) != "" {
		t.Fatal("empty sparkline should be empty")
	}
	flat := Sparkline([]float64{2, 2, 2})
	if len([]rune(flat)) != 3 {
		t.Fatal("flat sparkline malformed")
	}
}
