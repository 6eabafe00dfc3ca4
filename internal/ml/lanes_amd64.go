package ml

// hasAVX2 reports whether the CPU runs AVX2 and the OS saves the YMM
// registers: the lane kernels' assembly runs only then.
var hasAVX2 = detectAVX2()

// detectAVX2 reads CPUID leaf 7 for AVX2, leaf 1 for AVX and OSXSAVE, and
// XCR0 for the XMM and YMM state the OS saves on a context switch.
func detectAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

// cpuid runs CPUID with EAX = leaf and ECX = subleaf.
func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads XCR0.
func xgetbv() (eax, edx uint32)

// gemvTKernel runs gemvT's lengths-checked call on AVX2 where the CPU has
// it, else on the reference loop.
func gemvTKernel(acc, x, m []float64, stride int) {
	if hasAVX2 {
		gemvTAVX2(acc, x, m, stride)
		return
	}
	gemvTGo(acc, x, m, stride)
}

// gemvTAVX2 is gemvT on AVX2: sixteen lanes per pass over x, four groups of
// four, the last group's lanes masked; a group past the last lane re-reads
// the first group's columns and is never stored.
//
//go:noescape
func gemvTAVX2(acc, x, m []float64, stride int)

// addRuns4Kernel runs addRuns4's lengths-checked call on AVX2 where the
// CPU has it, the row's last len(r)%4 coordinates on the reference loop.
func addRuns4Kernel(r []float64, g *[4]float64, x0, x1, x2, x3 []float64) {
	if !hasAVX2 {
		addRuns4Go(r, g, x0, x1, x2, x3)
		return
	}
	n := len(r) &^ 3
	addRuns4AVX2(r[:n], g, x0, x1, x2, x3)
	addRuns4Go(r[n:], g, x0[n:], x1[n:], x2[n:], x3[n:])
}

// addRuns4AVX2 is addRuns4 on AVX2 for a row whose length is a multiple
// of 4: four coordinates per step.
//
//go:noescape
func addRuns4AVX2(r []float64, coef *[4]float64, x0, x1, x2, x3 []float64)
