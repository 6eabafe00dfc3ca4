//go:build !amd64

package ml

// The lane kernel's assembly forms are amd64's: here the reference loop is
// the only tier.
const hasAVX2, hasAVX512 = false, false

var laneTier = tierGo

func gemvTKernel(acc, x, m []float64, stride int) { gemvTGo(acc, x, m, stride) }
