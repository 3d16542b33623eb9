package koopmancrc

// Monte-Carlo oracle for the analytic detection claims: random frames
// built with AppendFCS are corrupted through CorruptCodeword and checked
// with VerifyFCS, and the fraction that escapes must match what the
// Hamming engine says about the polynomial.

import (
	"context"
	"encoding/binary"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"koopmancrc/internal/crc"
	"koopmancrc/internal/poly"
)

// errorPattern draws the codeword positions of one corruption of a
// frame of the given number of bits.
type errorPattern func(rng *rand.Rand, bits int) []int

// fixedWeight flips exactly w distinct positions chosen uniformly: the
// error class Hamming distance speaks about directly.
func fixedWeight(w int) errorPattern {
	return func(rng *rand.Rand, bits int) []int {
		pos := make([]int, 0, w)
		for len(pos) < w {
			if i := int(rng.Uint64N(uint64(bits))); !slices.Contains(pos, i) {
				pos = append(pos, i)
			}
		}
		return pos
	}
}

// burst flips a contiguous run of 1..maxLen positions whose first and
// last bits are always set and whose inner bits flip with probability
// 1/2 (the conventional burst definition).
func burst(maxLen int) errorPattern {
	return func(rng *rand.Rand, bits int) []int {
		length := 1 + int(rng.Uint64N(uint64(min(maxLen, bits))))
		start := int(rng.Uint64N(uint64(bits - length + 1)))
		var pos []int
		for b := 0; b < length; b++ {
			if b == 0 || b == length-1 || rng.Uint64()&1 == 0 {
				pos = append(pos, start+b)
			}
		}
		return pos
	}
}

// undetectedTrials frames trials random payloads of payloadLen bytes
// under p, corrupts each frame with one draw of errs and counts the
// corrupted frames that still verify.
func undetectedTrials(t *testing.T, p Polynomial, payloadLen, trials int, seed uint64, errs errorPattern) int {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 0xC0DEC0DE))
	payload := make([]byte, payloadLen)
	undetected := 0
	for range trials {
		for i := range payload {
			payload[i] = byte(rng.Uint64())
		}
		frame, err := AppendFCS(p, payload)
		if err != nil {
			t.Fatal(err)
		}
		if err := CorruptCodeword(frame, errs(rng, 8*len(frame))); err != nil {
			t.Fatal(err)
		}
		if VerifyFCS(p, frame) {
			undetected++
		}
	}
	return undetected
}

// binomial returns C(n, k) as a float64.
func binomial(n, k int) float64 {
	c := 1.0
	for i := 1; i <= k; i++ {
		c = c * float64(n-k+i) / float64(i)
	}
	return c
}

func TestWitnessCorruptionIsUndetectable(t *testing.T) {
	// Convert a weight-4 undetectable pattern of the 802.3 polynomial at
	// 2975 data bits (the §4.1 breakpoint; W4 = 1 there) into a concrete
	// corrupted frame: the CRC must NOT notice, while the paper's
	// 0xBA0DC66B (HD=6 at this length) must.
	wit, found, err := NewAnalyzer(IEEE8023).Witness(context.Background(), 4, 2975)
	if err != nil || !found {
		t.Fatalf("witness: %v %v", found, err)
	}
	const payloadBytes = (2975 + 7) / 8 // witness needs a codeword of >= 3007 bits
	if payloadBytes*8+32 < wit[len(wit)-1]+1 {
		t.Fatalf("frame too small for witness %v", wit)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	payload := make([]byte, payloadBytes)
	for i := range payload {
		payload[i] = byte(rng.Uint64())
	}
	frame, err := AppendFCS(IEEE8023, payload)
	if err != nil {
		t.Fatal(err)
	}
	if !VerifyFCS(IEEE8023, frame) {
		t.Fatal("valid codeword should have zero remainder")
	}
	before := PureChecksum(Koopman32K, frame)
	if err := CorruptCodeword(frame, wit); err != nil {
		t.Fatal(err)
	}
	if !VerifyFCS(IEEE8023, frame) {
		t.Fatal("witness corruption should be invisible to the 802.3 CRC")
	}
	if PureChecksum(Koopman32K, frame) == before {
		t.Fatal("0xBA0DC66B should detect the 802.3-undetectable 4-bit error")
	}
}

func TestCorruptCodewordValidation(t *testing.T) {
	frame := make([]byte, 4)
	if err := CorruptCodeword(frame, []int{32}); err == nil {
		t.Error("out-of-range position should error")
	}
	if err := CorruptCodeword(frame, []int{-1}); err == nil {
		t.Error("negative position should error")
	}
	// Flipping twice restores the frame.
	for range 2 {
		if err := CorruptCodeword(frame, []int{0, 7, 31}); err != nil {
			t.Fatal(err)
		}
	}
	for _, b := range frame {
		if b != 0 {
			t.Fatal("double flip should cancel")
		}
	}
}

func TestOddWeightAlwaysDetectedByParityPolynomial(t *testing.T) {
	// CRC-8/ATM's generator x^8+x^2+x+1 is divisible by (x+1): every
	// odd-weight error must be caught, regardless of position.
	for _, w := range []int{1, 3, 5, 7} {
		if n := undetectedTrials(t, poly.ATM8, 16, 3000, 7, fixedWeight(w)); n != 0 {
			t.Errorf("weight %d: %d undetected errors for (x+1)-divisible generator", w, n)
		}
	}
}

func TestFixedWeightBelowHDAlwaysDetected(t *testing.T) {
	// 0xBA0DC66B keeps HD=6 at MTU length: every 1..5-bit error within an
	// MTU frame is detected.
	if testing.Short() {
		t.Skip("MTU-frame Monte Carlo in -short mode")
	}
	for _, w := range []int{2, 3, 4, 5} {
		if n := undetectedTrials(t, Koopman32K, 1514, 400, 11, fixedWeight(w)); n != 0 {
			t.Errorf("weight %d: %d undetected within HD=6 regime", w, n)
		}
	}
}

func TestBurstWithinWidthAlwaysDetected(t *testing.T) {
	// A degree-32 generator with a non-zero constant term detects every
	// burst of at most 32 bits.
	for _, p := range []Polynomial{IEEE8023, CastagnoliISCSI, Koopman32K} {
		if n := undetectedTrials(t, p, 256, 2000, 13, burst(32)); n != 0 {
			t.Errorf("%v: %d undetected bursts <= 32 bits", p, n)
		}
	}
}

func TestBurstWithinWidthDetectedByDeployedEngines(t *testing.T) {
	// The same burst claim through the standard-parameter kernels
	// (table-driven, reflected, with init and xorout): a corrupted
	// frame's recomputed FCS must differ from the one it carries.
	rng := rand.New(rand.NewPCG(13, 0xC0DEC0DE))
	payload := make([]byte, 256)
	for _, params := range []crc.Params{crc.CRC32IEEE, crc.CRC32C, crc.CRC32K} {
		e := crc.New(params)
		undetected := 0
		for range 2000 {
			for i := range payload {
				payload[i] = byte(rng.Uint64())
			}
			frame := binary.BigEndian.AppendUint32(slices.Clone(payload), e.Checksum(payload))
			if err := CorruptCodeword(frame, burst(32)(rng, 8*len(frame))); err != nil {
				t.Fatal(err)
			}
			if e.Checksum(frame[:len(payload)]) == binary.BigEndian.Uint32(frame[len(payload):]) {
				undetected++
			}
		}
		if undetected != 0 {
			t.Errorf("%s: %d undetected bursts <= 32 bits", params.Name, undetected)
		}
	}
}

func TestUndetectedRateMatchesWeightsForTinyCRC(t *testing.T) {
	// Under a uniformly drawn w-bit error the undetected fraction is
	// exactly W_w / C(total, w), W_w taken from the Hamming engine. The
	// escape count of N trials must lie within 4 binomial standard
	// deviations of N times that rate.
	for _, c := range []struct {
		name         string
		p            Polynomial
		w            int
		payloadBytes int
		trials       int
		seed         uint64
	}{
		// x^8+x^2+x+1 has period 127, so a 136-bit codeword (16-byte
		// payload) admits exactly 9 undetectable 2-bit patterns
		// {i, i+127}.
		{"CRC-8/ATM W2", poly.ATM8, 2, 16, 400000, 17},
		// CRC-16/CCITT at 32 data bits: 48 undetectable 4-bit patterns
		// in a 48-bit codeword.
		{"CRC-16/CCITT W4", poly.CCITT16, 4, 4, 200000, 19},
	} {
		ww, err := NewAnalyzer(c.p).Weight(context.Background(), c.w, 8*c.payloadBytes)
		if err != nil {
			t.Fatal(err)
		}
		if ww == 0 {
			t.Fatalf("%s: the case needs a length with undetectable patterns", c.name)
		}
		rate := float64(ww) / binomial(8*c.payloadBytes+c.p.Width(), c.w)
		mean := float64(c.trials) * rate
		bound := 4 * math.Sqrt(mean*(1-rate))
		got := undetectedTrials(t, c.p, c.payloadBytes, c.trials, c.seed, fixedWeight(c.w))
		report := t.Logf
		if math.Abs(float64(got)-mean) > bound {
			report = t.Errorf
		}
		report("%s: %d of %d escaped, expected %.1f ± %.1f (W = %d)", c.name, got, c.trials, mean, bound, ww)
	}
}
