package ml

import "testing"

// TestGradAccumulatorDedup: repeated indices within one batch must collapse
// to a single optimizer-visible coordinate (so Adam's per-coordinate state
// steps once per batch), with contributions summed in insertion order.
func TestGradAccumulatorDedup(t *testing.T) {
	var acc gradAccumulator
	acc.Reset(10)
	acc.Add([]int32{3, 5, 3}, []float64{1, 2, 3})
	acc.Add([]int32{5, 1}, []float64{4, 8})
	gi, gv := acc.Gather(0.5)
	want := map[int32]float64{3: 2, 5: 3, 1: 4}
	if len(gi) != 3 {
		t.Fatalf("touched %d coords, want 3: %v", len(gi), gi)
	}
	for k, idx := range gi {
		if gv[k] != want[idx] {
			t.Fatalf("coord %d = %v, want %v", idx, gv[k], want[idx])
		}
	}
	acc.Clear()
	if gi, gv := acc.Gather(1); len(gi) != 0 || len(gv) != 0 {
		t.Fatalf("accumulator not empty after Clear: %v %v", gi, gv)
	}
}
