package crc

import (
	"encoding/binary"
	"hash/crc32"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"koopmancrc/internal/gf2"
	"koopmancrc/internal/poly"
)

var checkInput = []byte("123456789")

func engines(t *testing.T, p Params) []Engine {
	t.Helper()
	out := []Engine{NewBitwise(p)}
	if tab, err := NewTable(p); err == nil {
		out = append(out, tab)
	}
	if s16, err := NewSlicing16(p); err == nil {
		out = append(out, s16)
	}
	if hw, err := NewHardware(p); err == nil {
		out = append(out, hw)
	}
	return out
}

func TestCatalogueCheckValues(t *testing.T) {
	for _, params := range Catalogue() {
		if params.Check == 0 {
			continue // no published check value
		}
		for _, e := range engines(t, params) {
			if got := e.Checksum(checkInput); got != params.Check {
				t.Errorf("%s %T: Checksum(123456789) = %#x, want %#x",
					params.Name, e, got, params.Check)
			}
		}
	}
}

func TestAgainstStdlibCRC32(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 43))
	tables := map[string]*crc32.Table{
		"IEEE":       crc32.MakeTable(crc32.IEEE),
		"Castagnoli": crc32.MakeTable(crc32.Castagnoli),
		"Koopman":    crc32.MakeTable(crc32.Koopman),
	}
	ours := map[string]Params{
		"IEEE":       CRC32IEEE,
		"Castagnoli": CRC32C,
		"Koopman":    CRC32K,
	}
	for name, tab := range tables {
		params := ours[name]
		for trial := 0; trial < 50; trial++ {
			n := int(rng.Uint64N(2048))
			data := make([]byte, n)
			for i := range data {
				data[i] = byte(rng.Uint64())
			}
			want := crc32.Checksum(data, tab)
			for _, e := range engines(t, params) {
				if got := e.Checksum(data); got != want {
					t.Fatalf("%s %T: mismatch vs hash/crc32: got %#x want %#x (len %d)",
						name, e, got, want, n)
				}
			}
		}
	}
}

func TestStdlibKoopmanConstantIsPaperPolynomial(t *testing.T) {
	// Go's crc32.Koopman == 0xEB31D82E is the reflected form of the paper's
	// 0xBA0DC66B — the {1,3,28} polynomial found by this paper's search.
	if uint32(poly.Koopman32K.Reversed()) != crc32.Koopman {
		t.Fatalf("poly.Koopman32K.Reversed() = %#x, want crc32.Koopman = %#x",
			poly.Koopman32K.Reversed(), crc32.Koopman)
	}
}

func TestEnginesAgreeProperty(t *testing.T) {
	for _, params := range Catalogue() {
		params := params
		es := engines(t, params)
		if len(es) < 2 {
			continue
		}
		f := func(data []byte) bool {
			want := es[0].Checksum(data)
			for _, e := range es[1:] {
				if e.Checksum(data) != want {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%s: %v", params.Name, err)
		}
	}
}

func TestStreamingUpdateComposes(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	for _, params := range Catalogue() {
		for _, e := range engines(t, params) {
			data := make([]byte, 1+int(rng.Uint64N(512)))
			for i := range data {
				data[i] = byte(rng.Uint64())
			}
			cut := int(rng.Uint64N(uint64(len(data))))
			state := e.Update(e.Init(), data[:cut])
			state = e.Update(state, data[cut:])
			if got, want := e.Finalize(state), e.Checksum(data); got != want {
				t.Errorf("%s %T: streaming %#x != one-shot %#x", params.Name, e, got, want)
			}
		}
	}
}

func TestPureCRCMatchesPolynomialRemainder(t *testing.T) {
	// The pure CRC (no init/reflect/xor) must equal data(x)*x^w mod G(x):
	// this is the bridge between the byte engines and the GF(2) machinery
	// the Hamming-distance analysis relies on.
	rng := rand.New(rand.NewPCG(3, 1))
	polys := []poly.P{poly.IEEE8023, poly.CastagnoliISCSI, poly.Koopman32K, poly.CCITT16, poly.ATM8}
	for _, pp := range polys {
		e := NewBitwise(Pure(pp))
		for trial := 0; trial < 100; trial++ {
			data := make([]byte, 1+rng.Uint64N(64))
			for i := range data {
				data[i] = byte(rng.Uint64())
			}
			if got, want := e.Checksum(data), RemainderCRC(pp, data); got != want {
				t.Fatalf("%v: engine %#x != remainder %#x", pp, got, want)
			}
		}
	}
}

func TestCodewordProperty(t *testing.T) {
	// Appending the pure CRC as an FCS yields a codeword divisible by G:
	// crc(data || fcs) == 0. This is the defining property used throughout
	// the paper's analysis.
	rng := rand.New(rand.NewPCG(9, 9))
	for _, pp := range []poly.P{poly.IEEE8023, poly.Koopman32K, poly.CCITT16} {
		e := NewBitwise(Pure(pp))
		for trial := 0; trial < 50; trial++ {
			data := make([]byte, 1+rng.Uint64N(128))
			for i := range data {
				data[i] = byte(rng.Uint64())
			}
			fcs := e.Checksum(data)
			var frame []byte
			switch pp.Width() {
			case 32:
				frame = binary.BigEndian.AppendUint32(append([]byte(nil), data...), fcs)
			case 16:
				frame = binary.BigEndian.AppendUint16(append([]byte(nil), data...), uint16(fcs))
			case 8:
				frame = append(append([]byte(nil), data...), byte(fcs))
			}
			if got := e.Checksum(frame); got != 0 {
				t.Fatalf("%v: crc(data||fcs) = %#x, want 0", pp, got)
			}
		}
	}
}

func TestLinearityOfPureCRC(t *testing.T) {
	// With zero init/xorout the CRC is GF(2)-linear:
	// crc(a XOR b) = crc(a) XOR crc(b) for equal-length inputs. Linearity is
	// what reduces undetected-error analysis to codeword weight analysis.
	rng := rand.New(rand.NewPCG(17, 23))
	e := NewBitwise(Pure(poly.IEEE8023))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Uint64N(256)
		a := make([]byte, n)
		b := make([]byte, n)
		x := make([]byte, n)
		for i := range a {
			a[i] = byte(rng.Uint64())
			b[i] = byte(rng.Uint64())
			x[i] = a[i] ^ b[i]
		}
		if e.Checksum(x) != e.Checksum(a)^e.Checksum(b) {
			t.Fatal("pure CRC is not linear")
		}
	}
}

func TestBurstDetection(t *testing.T) {
	// "All burst errors of size less than or equal to the number of bits in
	// the CRC are detected" (paper §3): a burst of length <= w cannot be a
	// multiple of a degree-w generator with non-zero constant term.
	rng := rand.New(rand.NewPCG(31, 37))
	for _, pp := range []poly.P{poly.IEEE8023, poly.Koopman32K, poly.CastagnoliISCSI} {
		e := NewBitwise(Pure(pp))
		data := make([]byte, 256)
		for i := range data {
			data[i] = byte(rng.Uint64())
		}
		base := e.Checksum(data)
		for trial := 0; trial < 300; trial++ {
			burstLen := 1 + int(rng.Uint64N(32)) // bits, <= width
			start := int(rng.Uint64N(uint64(len(data)*8 - burstLen)))
			corrupted := append([]byte(nil), data...)
			// Burst pattern with first and last bit set.
			for b := 0; b < burstLen; b++ {
				if b == 0 || b == burstLen-1 || rng.Uint64()&1 == 0 {
					pos := start + b
					corrupted[pos/8] ^= 1 << uint(7-pos%8)
				}
			}
			if e.Checksum(corrupted) == base {
				t.Fatalf("%v: undetected burst of length %d bits", pp, burstLen)
			}
		}
	}
}

func TestTableEngineErrors(t *testing.T) {
	if _, err := NewTable(Pure(poly.MustKoopman(5, 0x15))); err == nil {
		t.Error("expected error for width 5 table engine")
	}
	mixed := CRC32IEEE
	mixed.RefOut = false
	if _, err := NewTable(mixed); err == nil {
		t.Error("expected error for mixed reflection")
	}
}

func TestNewPicksFastestEngine(t *testing.T) {
	// All three of the paper's polynomials get the hardware engine
	// where the fold runs: IEEE and Castagnoli fold where the CPU has
	// its 512-bit loops and go to hash/crc32's fast paths elsewhere; the
	// paper's Koopman polynomial folds wherever the CPU probe found the
	// fold, and gets the widest slicing kernel elsewhere.
	for _, p := range []Params{CRC32IEEE, CRC32C} {
		hw, ok := New(p).(*Hardware)
		if !ok || !hw.Accelerated() {
			t.Errorf("New(%s) should return an accelerated hardware engine", p.Name)
		} else if (hw.fold != nil) != foldWide {
			t.Errorf("New(%s) folds %v, want %v (the 512-bit loops)", p.Name, hw.fold != nil, foldWide)
		}
	}
	if foldAvailable {
		if hw, ok := New(CRC32K).(*Hardware); !ok || hw.fold == nil {
			t.Error("New(CRC32K) should return a folding hardware engine on a fold host")
		}
	} else if _, ok := New(CRC32K).(*Slicing16); !ok {
		t.Error("New(CRC32K) should return a slicing-by-16 engine without the fold")
	}
	if _, ok := New(CRC16CCITTFalse).(*Table); !ok {
		t.Error("New(CRC16CCITTFalse) should return a table engine")
	}
	if _, ok := New(Pure(poly.MustKoopman(5, 0x15))).(*Bitwise); !ok {
		t.Error("New(width 5) should return a bitwise engine")
	}
}

func TestLookup(t *testing.T) {
	got, err := Lookup("CRC-32C/iSCSI")
	if err != nil {
		t.Fatal(err)
	}
	if got.Poly != poly.CastagnoliISCSI {
		t.Errorf("Lookup returned wrong polynomial %v", got.Poly)
	}
	if _, err := Lookup("nope"); err == nil {
		t.Error("expected error for unknown name")
	}
}

func TestOddWidthBitwise(t *testing.T) {
	// CRC-5/USB: poly 0x05 normal (width 5), reflected, init 0x1F,
	// xorout 0x1F, check 0x19.
	p5, err := poly.FromNormal(5, 0x05)
	if err != nil {
		t.Fatal(err)
	}
	e := NewBitwise(Params{Name: "CRC-5/USB", Poly: p5, Init: 0x1F, RefIn: true, RefOut: true, XorOut: 0x1F})
	if got := e.Checksum(checkInput); got != 0x19 {
		t.Errorf("CRC-5/USB check = %#x, want 0x19", got)
	}
}

func TestRemainderCRCAgreesWithGF2Mod(t *testing.T) {
	// Cross-check remainder() against a direct gf2.Mod computation for
	// short inputs that fit in a uint64 polynomial.
	rng := rand.New(rand.NewPCG(5, 5))
	pp := poly.ATM8
	for trial := 0; trial < 200; trial++ {
		data := []byte{byte(rng.Uint64()), byte(rng.Uint64()), byte(rng.Uint64())}
		var v gf2.Poly
		for _, b := range data {
			v = v<<8 | gf2.Poly(b)
		}
		want := uint32(gf2.Mod(v<<8, pp.Full()))
		if got := RemainderCRC(pp, data); got != want {
			t.Fatalf("RemainderCRC = %#x, gf2.Mod = %#x", got, want)
		}
	}
}
