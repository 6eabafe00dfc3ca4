package ml

// hasAVX2 and hasAVX512 report which assembly forms of the lane kernel the
// CPU runs with the register state the OS saves; laneTier is the widest,
// chosen once at init.
var (
	hasAVX2   = detectAVX2()
	hasAVX512 = detectAVX512()
	laneTier  = widestTier()
)

// widestTier returns the widest lane kernel form the CPU runs: AVX-512,
// then AVX2, then the Go reference loops.
func widestTier() kernelTier {
	switch {
	case hasAVX512:
		return tierAVX512
	case hasAVX2:
		return tierAVX2
	}
	return tierGo
}

// osxsave reports whether the CPU has leaf 7 and CPUID leaf 1 reports
// OSXSAVE and AVX, so XGETBV may run and VEX instructions (VZEROUPPER
// among them) exist.
func osxsave() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	_, _, ecx, _ := cpuid(1, 0)
	return ecx&osxsave != 0 && ecx&avx != 0
}

// detectAVX2 reads CPUID leaf 7 for AVX2 and XCR0 for the XMM and YMM state
// the OS saves on a context switch.
func detectAVX2() bool {
	if !osxsave() {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

// detectAVX512 reads CPUID leaf 7 for AVX512F and XCR0 for the XMM, YMM,
// opmask, upper-ZMM0–15 and ZMM16–31 state (bits 1, 2, 5, 6, 7) the OS
// saves on a context switch.
func detectAVX512() bool {
	if !osxsave() {
		return false
	}
	const zmmState = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7
	if xcr0, _ := xgetbv(); xcr0&zmmState != zmmState {
		return false
	}
	const avx512f = 1 << 16
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx512f != 0
}

// cpuid runs CPUID with EAX = leaf and ECX = subleaf.
func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads XCR0.
func xgetbv() (eax, edx uint32)

// gemvTKernel runs gemvT's lengths-checked call in laneTier's form.
func gemvTKernel(acc, x, m []float64, stride int) {
	switch laneTier {
	case tierAVX512:
		gemvTAVX512(acc, x, m, stride)
	case tierAVX2:
		gemvTAVX2(acc, x, m, stride)
	default:
		gemvTGo(acc, x, m, stride)
	}
}

// gemvTAVX512 is gemvT on AVX-512: thirty-two lanes per pass over x, four
// groups of eight, every group's loads and stores under its lanes' opmask,
// so no value outside the lanes is read or written.
//
//go:noescape
func gemvTAVX512(acc, x, m []float64, stride int)

// gemvTAVX2 is gemvT on AVX2: sixteen lanes per pass over x, four groups of
// four, the last group's lanes masked; a group past the last lane re-reads
// the first group's columns and is never stored.
//
//go:noescape
func gemvTAVX2(acc, x, m []float64, stride int)
