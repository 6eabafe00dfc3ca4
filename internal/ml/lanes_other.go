//go:build !amd64

package ml

// The lane kernels' assembly forms are amd64's: here the reference loops
// are the only tier.
const hasAVX2, hasAVX512 = false, false

var laneTier = tierGo

func gemvTKernel(acc, x, m []float64, stride int) { gemvTGo(acc, x, m, stride) }

func addRuns4Kernel(r []float64, g *[4]float64, x0, x1, x2, x3 []float64) {
	addRuns4Go(r, g, x0, x1, x2, x3)
}
