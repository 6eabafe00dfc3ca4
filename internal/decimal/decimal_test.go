package decimal

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// matchesStrconv reports Parse's verdict on s, read as a string and as a
// byte slice, and fails t when the two readings differ or an accepted s
// does not parse to strconv.ParseFloat's bits with a nil error.
func matchesStrconv(t *testing.T, s string) (ok bool) {
	t.Helper()
	got, ok := Parse(s)
	gotB, okB := Parse([]byte(s))
	if ok != okB || math.Float64bits(got) != math.Float64bits(gotB) {
		t.Fatalf("Parse(%q) = %v, %v as a string but %v, %v as bytes", s, got, ok, gotB, okB)
	}
	if !ok {
		return false
	}
	want, err := strconv.ParseFloat(s, 64)
	if err != nil || math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("Parse(%q) = %v (%#x), strconv: %v (%#x), %v", s, got, math.Float64bits(got), want, math.Float64bits(want), err)
	}
	return true
}

// TestParseDecimalMatchesStrconv holds Parse to strconv.ParseFloat, bit
// for bit, for both instantiations: on random float64s printed every way
// strconv prints them and on random digit strings with random exponents.
func TestParseDecimalMatchesStrconv(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	fast := 0
	check := func(s string) {
		if matchesStrconv(t, s) {
			fast++
		}
	}
	for _, s := range []string{"0", "-0", "+0.0", "0e5", "1", "-1", "5.", ".5", "1e19", "1e-19",
		"9999999999999999999", "9999999999999999999e19", "1.000000000000000000e-19", "18446744073709551615",
		"9007199254740993", "9007199254740995", "4503599627370496.5", "4503599627370497.5", "0.1", "0.3"} {
		check(s)
	}
	for i := 0; i < 50000; i++ {
		x := math.Float64frombits(rng.Uint64())
		if math.IsNaN(x) || math.IsInf(x, 0) {
			continue
		}
		if i%2 == 0 {
			x = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(30)-15))
		}
		check(strconv.FormatFloat(x, 'g', -1, 64))
		check(strconv.FormatFloat(x, 'e', rng.Intn(19), 64))
		check(strconv.FormatFloat(x, 'f', rng.Intn(19), 64))
		digits := strconv.FormatUint(rng.Uint64()>>uint(rng.Intn(64)), 10)
		if k := rng.Intn(len(digits) + 1); k < len(digits) {
			digits = digits[:k] + "." + digits[k:]
		}
		check(fmt.Sprintf("%se%d", digits, rng.Intn(41)-20))
	}
	// Mantissas past 2^53 take the integer path; about one in 4 096 of
	// them lands its discarded bits on exactly half, where only the
	// remainder tells a tie from a round-up.
	for i := 0; i < 200000; i++ {
		mant := 1<<53 + rng.Uint64()%(1e19-1<<53)
		check(strconv.FormatUint(mant, 10) + "e" + strconv.Itoa(rng.Intn(39)-19))
	}
	if fast < 300000 {
		t.Fatalf("only %d inputs took the fast path", fast)
	}
}

// TestParseInsertShape holds Parse to strconv.ParseFloat on numbers as an
// INSERT statement carries them, strconv.FormatFloat(v, 'f', -1, 64): most
// take the fast path, and one with more than 19 digits falls back.
func TestParseInsertShape(t *testing.T) {
	for _, s := range []string{"0.000012345678901234567", "-0.000012345678901234567", "123456789012345678901",
		"0.00000000000000000001", "1234567890.1234567890"} {
		if matchesStrconv(t, s) {
			t.Errorf("Parse(%q) took the fast path; it has more than 19 digits", s)
		}
	}
	rng := rand.New(rand.NewSource(40))
	const n = 100000
	fast := 0
	for i := 0; i < n; i++ {
		v := rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
		if i%4 == 0 {
			v = float64(rng.Intn(10))
		}
		if matchesStrconv(t, strconv.FormatFloat(v, 'f', -1, 64)) {
			fast++
		}
	}
	// Values under about 10^-2 print more than 19 digits and fall back;
	// they are about an eighth of this mix.
	if fast < n*3/4 {
		t.Fatalf("only %d of %d inputs took the fast path", fast, n)
	}
}

// FuzzParseDecimal: an input Parse accepts, as a string and as bytes
// alike, parses to strconv.ParseFloat's bits with a nil error.
func FuzzParseDecimal(f *testing.F) {
	for _, s := range []string{"0", "-0", "+1.5", "1e19", "1e-19", "1e20", "1e-20", "5.", ".5", ".", "e5", "1e",
		"1e+", "9999999999999999999", "99999999999999999999", "18446744073709551615e-19",
		"4503599627370497.5", "0.000012345678901234567", "1_0", "0x1p-2", "inf", "NaN", "1.2.3", "--1", ""} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		matchesStrconv(t, s)
	})
}
