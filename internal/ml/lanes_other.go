//go:build !amd64

package ml

// gemvTKernel and addRuns4Kernel run the reference loops: the AVX2 forms
// are amd64 assembly.
func gemvTKernel(acc, x, m []float64, stride int) { gemvTGo(acc, x, m, stride) }

func addRuns4Kernel(r []float64, g *[4]float64, x0, x1, x2, x3 []float64) {
	addRuns4Go(r, g, x0, x1, x2, x3)
}
