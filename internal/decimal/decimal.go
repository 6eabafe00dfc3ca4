// Package decimal parses the common decimal form of a number exactly,
// without strconv: the LIBSVM reader and the SQL parser read most of
// their numbers with it and leave the rest to strconv.ParseFloat.
package decimal

import (
	"math"
	"math/bits"
)

// pow10 holds 10⁰…10¹⁹, every power of ten a uint64 holds.
var pow10 = func() (p [20]uint64) {
	p[0] = 1
	for i := 1; i < len(p); i++ {
		p[i] = p[i-1] * 10
	}
	return p
}()

// Parse parses [+-]digits[.digits][(e|E)[+-]digits] with at most 19
// digits before the exponent and a decimal exponent within ±19 — every
// number WriteLIBSVM's %g prints, and most that other tools print. It
// computes mantissa × 10^exponent exactly in 128-bit integers and rounds
// once, to nearest, ties to even, so it returns strconv.ParseFloat's
// result. ok is false for any other text, which strconv.ParseFloat then
// parses. It reads a string or a byte slice in place.
func Parse[T string | []byte](s T) (v float64, ok bool) {
	i, neg := 0, false
	if len(s) > 0 && (s[0] == '+' || s[0] == '-') {
		neg, i = s[0] == '-', 1
	}
	var mant uint64
	start := i
	for ; i < len(s) && s[i]-'0' < 10; i++ {
		mant = mant*10 + uint64(s[i]-'0')
	}
	digits, exp := i-start, 0
	if i < len(s) && s[i] == '.' {
		i++
		frac := i
		for ; i < len(s) && s[i]-'0' < 10; i++ {
			mant = mant*10 + uint64(s[i]-'0')
		}
		digits += i - frac
		exp = frac - i
	}
	if digits == 0 || digits > 19 {
		return 0, false
	}
	if i < len(s) && s[i]|0x20 == 'e' {
		i++
		eneg := false
		if i < len(s) && (s[i] == '+' || s[i] == '-') {
			eneg, i = s[i] == '-', i+1
		}
		e, start := 0, i
		for ; i < len(s) && s[i]-'0' < 10 && e < 1000; i++ {
			e = e*10 + int(s[i]-'0')
		}
		if i == start {
			return 0, false
		}
		if eneg {
			e = -e
		}
		exp += e
	}
	if i != len(s) || exp < -19 || exp > 19 {
		return 0, false
	}
	if mant != 0 {
		v = toFloat(mant, exp)
	}
	if neg {
		v = -v
	}
	return v, true
}

// toFloat returns mant × 10^exp rounded to the nearest float64, ties to
// even, for mant > 0 and |exp| <= 19. A mant below 2^53 takes one float
// operation. A larger one is multiplied or divided exactly into a 64-bit m
// with its top bit set, scaled by 2^e2, plus a sticky flag for any nonzero
// bits below m; rounding m to 53 bits is then the only rounding.
func toFloat(mant uint64, exp int) float64 {
	if mant < 1<<53 {
		// Both operands are exact float64s (5^19 < 2^53), so the one
		// multiply or divide is the only rounding.
		if exp < 0 {
			return float64(mant) / float64(pow10[-exp])
		}
		return float64(mant) * float64(pow10[exp])
	}
	var m uint64
	var e2 int
	sticky := false
	if exp >= 0 {
		hi, lo := bits.Mul64(mant, pow10[exp])
		if hi == 0 {
			n := bits.LeadingZeros64(lo)
			m, e2 = lo<<n, -n
		} else {
			n := bits.LeadingZeros64(hi)
			m, e2 = hi<<n|lo>>(64-n), 64-n
			sticky = lo<<n != 0
		}
	} else {
		// Scale mant by 2^s so that the quotient lands in [2^63, 2^64):
		// 2^63 + t puts it in (2^62, 2^64), and one more doubling is
		// needed when mant × 2^t < d.
		d := pow10[-exp]
		t := bits.Len64(d) - bits.Len64(mant)
		s := 63 + t
		if t >= 0 && mant<<t < d || t < 0 && mant < d<<-t {
			s++
		}
		q, r := divShifted(mant, s, d)
		m, e2, sticky = q, -s, r != 0
	}
	// A keep rounded up to 2^53 is still exact in a float64.
	keep, rest := m>>11, m&(1<<11-1)
	if rest > 1<<10 || rest == 1<<10 && (sticky || keep&1 == 1) {
		keep++
	}
	return math.Ldexp(float64(keep), e2+11)
}

// divShifted returns the quotient and remainder of mant × 2^s over d, for
// 0 < s < 128 and a quotient below 2^64.
func divShifted(mant uint64, s int, d uint64) (q, r uint64) {
	var hi, lo uint64
	if s >= 64 {
		hi = mant << (s - 64)
	} else {
		hi, lo = mant>>(64-s), mant<<s
	}
	return bits.Div64(hi, lo, d)
}
