package ml

import (
	"corgipile/internal/data"
)

// FactorizationMachine is a rank-K factorization machine for binary
// classification with logistic loss — the factorized pairwise-interaction
// model the in-DB ML literature the paper builds on also targets
// (Rendle 2013). The decision value is
//
//	ŷ(x) = b + Σᵢ wᵢxᵢ + ½ Σ_f [(Σᵢ v_{i,f} xᵢ)² − Σᵢ v_{i,f}² xᵢ²]
//
// computed in O(nnz·K) via the precomputed-sums identity.
//
// Weight layout: linear weights w (features), bias (1 slot), then V as
// features rows of K factors: v_{i,f} at features+1 + i*K + f.
type FactorizationMachine struct {
	// Factors is the interaction rank K.
	Factors int
}

// Name implements Model.
func (FactorizationMachine) Name() string { return "fm" }

// Dim implements Model.
func (m FactorizationMachine) Dim(features int) int {
	return features + 1 + features*m.k()
}

func (m FactorizationMachine) k() int {
	if m.Factors <= 0 {
		return 8
	}
	return m.Factors
}

// features recovers the feature count from the weight length.
func (m FactorizationMachine) features(w []float64) int {
	return (len(w) - 1) / (1 + m.k())
}

// score computes the FM decision value, plus the per-factor sums needed by
// the gradient (returned to avoid recomputation). The sums live in the
// workspace's scratch buffer.
func (m FactorizationMachine) scoreSums(ws *Workspace, w []float64, t *data.Tuple) (y float64, sums []float64) {
	k := m.k()
	d := m.features(w)
	y = w[d] // bias
	vBase := d + 1

	eachNZ := func(fn func(idx int, x float64)) {
		if t.IsSparse() {
			for i, ix := range t.SparseIdx {
				if int(ix) < d {
					fn(int(ix), t.SparseVal[i])
				}
			}
			return
		}
		for i, x := range t.Dense {
			if i >= d {
				break
			}
			if x != 0 {
				fn(i, x)
			}
		}
	}

	eachNZ(func(idx int, x float64) { y += w[idx] * x })
	sums = scratch(&ws.dh, k)
	for f := range sums {
		sums[f] = 0
	}
	var sumSq float64
	eachNZ(func(idx int, x float64) {
		row := w[vBase+idx*k : vBase+(idx+1)*k]
		for f := 0; f < k; f++ {
			vx := row[f] * x
			sums[f] += vx
			sumSq += vx * vx
		}
	})
	var inter float64
	for f := 0; f < k; f++ {
		inter += sums[f] * sums[f]
	}
	y += 0.5 * (inter - sumSq)
	return y, sums
}

// score returns the decision value only.
func (m FactorizationMachine) score(w []float64, t *data.Tuple) float64 {
	var ws Workspace
	y, _ := m.scoreSums(&ws, w, t)
	return y
}

// gradBatch implements Model: logistic loss on ±1 labels. Each tuple's
// entries scatter over V, so they are appended as computed: to d's (gi, gv),
// or to a log in ws that d's accumulator then adds entry by entry.
func (m FactorizationMachine) gradBatch(ws *Workspace, w []float64, ts []data.Tuple, d *gradDest) []float64 {
	losses := scratch(&ws.loss, len(ts))
	for i := range ts {
		if d.acc == nil {
			losses[i], d.gi, d.gv = m.grad(ws, w, &ts[i], d.gi, d.gv)
			continue
		}
		losses[i], ws.gi, ws.gv = m.grad(ws, w, &ts[i], ws.gi[:0], ws.gv[:0])
		d.acc.Add(ws.gi, ws.gv)
	}
	return losses
}

// grad appends t's gradient entries to gi/gv and returns its loss, with the
// per-factor sums in ws.
func (m FactorizationMachine) grad(ws *Workspace, w []float64, t *data.Tuple, gi []int32, gv []float64) (float64, []int32, []float64) {
	y, sums := m.scoreSums(ws, w, t)
	ym := t.Label * y
	loss := logLoss(ym)
	s := -t.Label * sigmoid(-ym) // dloss/dy
	if s == 0 {
		return loss, gi, gv
	}
	k := m.k()
	d := m.features(w)
	vBase := d + 1

	emit := func(idx int, x float64) {
		// Linear part.
		gi = append(gi, int32(idx))
		gv = append(gv, s*x)
		// Interaction part: ∂y/∂v_{i,f} = x·sums[f] − v_{i,f}·x².
		row := w[vBase+idx*k : vBase+(idx+1)*k]
		for f := 0; f < k; f++ {
			gi = append(gi, int32(vBase+idx*k+f))
			gv = append(gv, s*(x*sums[f]-row[f]*x*x))
		}
	}
	if t.IsSparse() {
		for i, ix := range t.SparseIdx {
			if int(ix) < d {
				emit(int(ix), t.SparseVal[i])
			}
		}
	} else {
		for i, x := range t.Dense {
			if i >= d {
				break
			}
			if x != 0 {
				emit(i, x)
			}
		}
	}
	// Bias.
	gi = append(gi, int32(d))
	gv = append(gv, s)
	return loss, gi, gv
}

// Predict implements Model, returning ±1.
func (m FactorizationMachine) Predict(w []float64, t *data.Tuple) float64 {
	var ws Workspace
	return m.predictWS(&ws, w, t)
}

// predictor implements boundPredictor: Predict with one per-factor sum
// buffer for every call.
func (m FactorizationMachine) predictor(w []float64) func(*data.Tuple) float64 {
	ws := new(Workspace)
	return func(t *data.Tuple) float64 { return m.predictWS(ws, w, t) }
}

// predictWS is Predict with the per-factor sum buffer in ws.
func (m FactorizationMachine) predictWS(ws *Workspace, w []float64, t *data.Tuple) float64 {
	if y, _ := m.scoreSums(ws, w, t); y >= 0 {
		return 1
	}
	return -1
}

// InitWeights gives the factor matrix the small random initialization FMs
// need (zero factors have zero interaction gradient).
func (m FactorizationMachine) InitWeights(w []float64, features int, scale float64, rng interface{ NormFloat64() float64 }) {
	if scale == 0 {
		scale = 0.01
	}
	for i := features + 1; i < len(w); i++ {
		w[i] = rng.NormFloat64() * scale
	}
}
