package core

import (
	"math"

	"corgipile/internal/data"
	"corgipile/internal/ml"
)

// HDFactor estimates the paper's block-variance factor h_D at weights w:
// the smallest h such that
//
//	(1/N) Σ_l ‖∇f_{B_l}(w) − ∇F(w)‖² ≤ h·σ²/b,
//
// where ∇f_{B_l} is the mean gradient of block l, σ² the per-tuple gradient
// variance, and b the block size. h_D = 1 for fully shuffled data (each
// block is an i.i.d. sample) and approaches b for perfectly clustered
// blocks — it is the knob through which data order enters Theorem 1's
// convergence rate.
//
// blocks partitions ds into consecutive runs; pass equal-size runs for the
// paper's setting.
func HDFactor(m ml.Model, w []float64, ds *data.Dataset, blockTuples int) float64 {
	n := ds.Len()
	if n == 0 || blockTuples <= 0 {
		return 0
	}
	dim := len(w)
	full := make([]float64, dim)
	var ws ml.Workspace
	var gi []int32
	var gv []float64

	// Per-tuple gradients are needed twice (variance and block means);
	// materialize them densely only via accumulation to avoid O(n·dim)
	// memory: first pass computes ∇F, second computes both variances.
	perTuple := func(i int, out []float64) {
		gi, gv = gi[:0], gv[:0]
		_, gi, gv = ml.Grad(m, &ws, w, &ds.Tuples[i], gi, gv)
		for j := range out {
			out[j] = 0
		}
		for j, idx := range gi {
			out[idx] += gv[j]
		}
	}

	g := make([]float64, dim)
	for i := 0; i < n; i++ {
		perTuple(i, g)
		for j := range full {
			full[j] += g[j]
		}
	}
	for j := range full {
		full[j] /= float64(n)
	}

	var sigma2 float64 // (1/m) Σ ‖∇f_i − ∇F‖²
	numBlocks := (n + blockTuples - 1) / blockTuples
	blockMean := make([]float64, dim)
	var blockVar float64 // (1/N) Σ ‖∇f_Bl − ∇F‖²
	for b := 0; b < numBlocks; b++ {
		lo := b * blockTuples
		hi := lo + blockTuples
		if hi > n {
			hi = n
		}
		for j := range blockMean {
			blockMean[j] = 0
		}
		for i := lo; i < hi; i++ {
			perTuple(i, g)
			var d2 float64
			for j := range g {
				d := g[j] - full[j]
				d2 += d * d
				blockMean[j] += g[j]
			}
			sigma2 += d2
		}
		var d2 float64
		cnt := float64(hi - lo)
		for j := range blockMean {
			d := blockMean[j]/cnt - full[j]
			d2 += d * d
		}
		blockVar += d2
	}
	sigma2 /= float64(n)
	blockVar /= float64(numBlocks)
	if sigma2 == 0 {
		if blockVar == 0 {
			return 1
		}
		return math.Inf(1)
	}
	return blockVar * float64(blockTuples) / sigma2
}

// BoundParams carries the problem constants of Theorem 1.
type BoundParams struct {
	// N is the total number of blocks, n the buffered blocks, B the tuples
	// per block, and M the total tuple count (M = N·B).
	N, Nbuf, B, M int
	// HD is the block-variance factor h_D.
	HD float64
	// Sigma2 is the per-tuple gradient variance σ².
	Sigma2 float64
	// T is the total number of tuple updates (S·n·b).
	T int
}

// Theorem1Bound evaluates the order-level convergence bound of Theorem 1
// for strongly convex objectives:
//
//	E[F(x̄) − F(x*)] ≲ (1−α)·h_D·σ²/T + β/T² + γ·m³/T³
//
// with α = (n−1)/(N−1), β = α² + (1−α)²(b−1)², γ = n³/N³. Constant factors
// are suppressed exactly as in the paper's ≲ notation, so the value is
// meaningful for *comparisons* across parameter settings, not in absolute
// terms.
func Theorem1Bound(p BoundParams) float64 {
	if p.T <= 0 || p.N <= 1 {
		return math.Inf(1)
	}
	alpha := float64(p.Nbuf-1) / float64(p.N-1)
	b := float64(p.B)
	beta := alpha*alpha + (1-alpha)*(1-alpha)*(b-1)*(b-1)
	nn := float64(p.Nbuf)
	gamma := nn * nn * nn / (float64(p.N) * float64(p.N) * float64(p.N))
	T := float64(p.T)
	m := float64(p.M)
	return (1-alpha)*p.HD*p.Sigma2/T + beta/(T*T) + gamma*m*m*m/(T*T*T)
}

// Alpha returns α = (n−1)/(N−1), the buffer coverage factor of Theorem 1.
func Alpha(nbuf, n int) float64 {
	if n <= 1 {
		return 1
	}
	return float64(nbuf-1) / float64(n-1)
}

// Theorem2Bound evaluates the order-level convergence bound of Theorem 2
// for smooth non-convex objectives (the ergodic gradient-norm average):
//
//	(1/S) Σ E‖∇F(x₀ˢ)‖² ≲ √((1−α)·h_D)·σ/√T + β/T + γ·m³/T^{3/2}
//
// with β = α²/((1−α)h_Dσ²) + (1−α)(b−1)²/(h_Dσ²) and γ = n³/((1−α)N³) for
// α ≤ (N−2)/(N−1); for α = 1 (full buffer) the bound is
// 1/T^{2/3} + (n³/N³)·m³/T. Constant factors are suppressed as in the
// paper's ≲ notation — compare values across settings, not absolutely.
func Theorem2Bound(p BoundParams) float64 {
	if p.T <= 0 || p.N <= 1 {
		return math.Inf(1)
	}
	T := float64(p.T)
	m := float64(p.M)
	nn := float64(p.Nbuf)
	NN := float64(p.N)
	gammaFull := nn * nn * nn / (NN * NN * NN)
	alpha := Alpha(p.Nbuf, p.N)
	if alpha >= 1 {
		return math.Pow(T, -2.0/3.0) + gammaFull*m*m*m/T
	}
	hs2 := p.HD * p.Sigma2
	if hs2 <= 0 {
		return math.Inf(1)
	}
	b := float64(p.B)
	beta := alpha*alpha/((1-alpha)*hs2) + (1-alpha)*(b-1)*(b-1)/hs2
	gamma := gammaFull / (1 - alpha)
	return math.Sqrt((1-alpha)*hs2)/math.Sqrt(T) + beta/T + gamma*m*m*m/math.Pow(T, 1.5)
}

// RecommendBuffer searches for the smallest buffer (in blocks) whose
// Theorem 1 bound comes within tolerance of the best achievable bound over
// all buffer sizes — the principled answer to "how much memory does
// CorgiPile need on this table?". It returns the block count, the bound at
// the recommendation, and the best bound.
func RecommendBuffer(p BoundParams, tolerance float64) (nbuf int, bound, bestBound float64) {
	if tolerance <= 0 {
		tolerance = 1.10
	}
	bounds := make([]float64, p.N+1)
	bestBound = math.Inf(1)
	for n := 1; n <= p.N; n++ {
		q := p
		q.Nbuf = n
		bounds[n] = Theorem1Bound(q)
		if bounds[n] < bestBound {
			bestBound = bounds[n]
		}
	}
	for n := 1; n <= p.N; n++ {
		if bounds[n] <= bestBound*tolerance {
			return n, bounds[n], bestBound
		}
	}
	return p.N, bounds[p.N], bestBound
}
