package crchash_test

import (
	"hash/crc32"
	"runtime"
	"sync"
	"testing"

	"koopmancrc"
	"koopmancrc/crchash"
	"koopmancrc/internal/poly"
)

func TestForAlgorithmCachesEngines(t *testing.T) {
	e1, err := crchash.ForAlgorithm("CRC-32C/iSCSI")
	if err != nil {
		t.Fatal(err)
	}
	e2, err := crchash.ForAlgorithm("CRC-32C/iSCSI")
	if err != nil {
		t.Fatal(err)
	}
	if e1 != e2 {
		t.Error("repeated ForAlgorithm returned distinct engines; cache is not working")
	}
	if _, err := crchash.ForAlgorithm("nope"); err == nil {
		t.Error("unknown algorithm should error")
	}
}

func TestChecksumMatchesStdlib(t *testing.T) {
	data := []byte("The quick brown fox jumps over the lazy dog")
	got, err := crchash.Checksum("CRC-32/IEEE-802.3", data)
	if err != nil {
		t.Fatal(err)
	}
	if want := crc32.ChecksumIEEE(data); got != want {
		t.Errorf("IEEE = %#x, want %#x", got, want)
	}
	got, err = crchash.Checksum("CRC-32C/iSCSI", data)
	if err != nil {
		t.Fatal(err)
	}
	if want := crc32.Checksum(data, crc32.MakeTable(crc32.Castagnoli)); got != want {
		t.Errorf("CRC-32C = %#x, want %#x", got, want)
	}
}

// TestChecksumConcurrent hammers the cached engine from many goroutines:
// the cache and the engines must be safe for concurrent use.
func TestChecksumConcurrent(t *testing.T) {
	data := []byte("concurrent checksum traffic")
	want, err := crchash.Checksum("CRC-32C/iSCSI", data)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				got, err := crchash.Checksum("CRC-32C/iSCSI", data)
				if err != nil || got != want {
					t.Errorf("got %#x, %v; want %#x", got, err, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestNewEngineKinds(t *testing.T) {
	data := []byte("123456789")
	for _, k := range []crchash.Kind{crchash.Auto, crchash.Bitwise, crchash.Table, crchash.Slicing16} {
		e, err := crchash.NewEngine(crchash.CRC32C, k)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if got := e.Checksum(data); got != crchash.CRC32C.Check {
			t.Errorf("%v: %#x, want %#x", k, got, crchash.CRC32C.Check)
		}
	}
	// CCITT-FALSE is non-reflected 16-bit: slicing-by-16 must refuse it.
	p, err := crchash.Lookup("CRC-16/CCITT-FALSE")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := crchash.NewEngine(p, crchash.Slicing16); err == nil {
		t.Error("slicing-by-16 should reject a non-reflected 16-bit algorithm")
	}
	if crchash.Slicing16.String() != "slicing16" || crchash.Kind(99).String() == "" {
		t.Error("Kind.String misbehaves")
	}
}

func TestRegisterValidation(t *testing.T) {
	p := koopmancrc.MustPolynomial(32, koopmancrc.Normal, "0x04C11DB7")
	if err := crchash.Register(crchash.Params{Poly: p}); err == nil {
		t.Error("empty name should be rejected")
	}
	if err := crchash.Register(crchash.Params{Name: "CRC-32/NOPOLY"}); err == nil {
		t.Error("zero polynomial should be rejected")
	}
	if err := crchash.Register(crchash.Params{Name: "CRC-32C/iSCSI", Poly: p}); err == nil {
		t.Error("duplicate of a built-in name should be rejected")
	}
	// A wrong check value must be caught before the algorithm is usable.
	if err := crchash.Register(crchash.Params{
		Name: "CRC-32/BADCHECK", Poly: p, Init: 0xFFFFFFFF, Check: 0xDEADBEEF,
	}); err == nil {
		t.Error("mismatched check value should be rejected")
	}
	if _, err := crchash.Checksum("CRC-32/BADCHECK", nil); err == nil {
		t.Error("rejected registration must not be resolvable")
	}

	// A valid registration becomes part of the catalogue.
	if err := crchash.Register(crchash.Params{
		Name: "CRC-16/TEST-REG", Poly: koopmancrc.MustPolynomial(16, koopmancrc.Normal, "0x1021"),
	}); err != nil {
		t.Fatal(err)
	}
	if err := crchash.Register(crchash.Params{
		Name: "CRC-16/TEST-REG", Poly: koopmancrc.MustPolynomial(16, koopmancrc.Normal, "0x1021"),
	}); err == nil {
		t.Error("duplicate registration should be rejected")
	}
	found := false
	for _, name := range crchash.Algorithms() {
		if name == "CRC-16/TEST-REG" {
			found = true
		}
	}
	if !found {
		t.Error("registered algorithm missing from Algorithms()")
	}
	if _, err := crchash.ForAlgorithm("CRC-16/TEST-REG"); err != nil {
		t.Errorf("registered algorithm not resolvable: %v", err)
	}
}

func TestDigestSumAppendsBigEndian(t *testing.T) {
	d := crchash.NewDigest(crchash.New(crchash.CRC32C))
	d.Write([]byte("123456789"))
	sum := d.Sum(nil)
	want := []byte{0xE3, 0x06, 0x92, 0x83}
	if len(sum) != 4 || sum[0] != want[0] || sum[1] != want[1] || sum[2] != want[2] || sum[3] != want[3] {
		t.Errorf("Sum = %x, want %x", sum, want)
	}
	d.Reset()
	d.Write([]byte("123456789"))
	if d.Sum32() != crchash.CRC32C.Check {
		t.Error("Reset broke the digest")
	}
}

func TestKindStringParseRoundTrip(t *testing.T) {
	for _, k := range append(crchash.Kinds(), crchash.Auto) {
		got, err := crchash.ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", k.String(), got, err, k)
		}
	}
	if got, err := crchash.ParseKind("  Slicing16 "); err != nil || got != crchash.Slicing16 {
		t.Errorf("ParseKind should trim and fold case: got %v, %v", got, err)
	}
	if _, err := crchash.ParseKind("simd512"); err == nil {
		t.Error("ParseKind should reject unknown names")
	}
	if crchash.Kind(99).String() != "Kind(99)" {
		t.Errorf("out-of-range String() = %q", crchash.Kind(99).String())
	}
}

func TestKindsEnumeratesEveryConcreteKind(t *testing.T) {
	ks := crchash.Kinds()
	seen := map[crchash.Kind]bool{}
	for _, k := range ks {
		if k == crchash.Auto {
			t.Error("Kinds() must not include Auto")
		}
		if seen[k] {
			t.Errorf("Kinds() lists %v twice", k)
		}
		seen[k] = true
		// Every listed kind must be constructible for at least the
		// reflected 32-bit class.
		if !k.Admits(crchash.CRC32C) {
			t.Errorf("%v does not admit CRC-32C", k)
		}
	}
	if len(ks) != 4 {
		t.Errorf("Kinds() has %d entries, want 4", len(ks))
	}
}

func TestAdmitsMatchesConstructors(t *testing.T) {
	ccitt, err := crchash.Lookup("CRC-16/CCITT-FALSE")
	if err != nil {
		t.Fatal(err)
	}
	arc, err := crchash.Lookup("CRC-16/ARC")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []crchash.Params{crchash.CRC32IEEE, crchash.CRC32C, crchash.CRC32K, ccitt, arc} {
		for _, k := range crchash.Kinds() {
			_, err := crchash.NewEngine(p, k)
			if admits := k.Admits(p); admits != (err == nil) {
				t.Errorf("%s/%v: Admits=%v but constructor err=%v", p.Name, k, admits, err)
			}
		}
	}
}

func TestKindOfRoundTrip(t *testing.T) {
	for _, k := range crchash.Kinds() {
		e, err := crchash.NewEngine(crchash.CRC32C, k)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if got := crchash.KindOf(e); got != k {
			t.Errorf("KindOf(NewEngine(%v)) = %v", k, got)
		}
	}
	// Auto resolves to some concrete kind, never back to Auto.
	if got := crchash.KindOf(crchash.New(crchash.CRC32C)); got == crchash.Auto {
		t.Error("KindOf(New(...)) should name the concrete kernel")
	}
}

// TestNewFollowsStructuralRule pins Auto's choice for the paper's three
// 32-bit algorithms and the two fallbacks: hardware for IEEE and
// Castagnoli on every host (the fold where the CPU has its 512-bit
// loops, hash/crc32 elsewhere; internal/crc pins which), and for every
// other reflected 32-bit set where the CPU probe found the carry-less-
// multiply fold; slicing16 for those sets elsewhere, the byte table for
// other byte-aligned widths, bitwise otherwise.
func TestNewFollowsStructuralRule(t *testing.T) {
	ccitt, err := crchash.Lookup("CRC-16/CCITT-FALSE")
	if err != nil {
		t.Fatal(err)
	}
	crc5 := crchash.Pure(poly.MustKoopman(5, 0x15))
	koopman := crchash.Slicing16
	if foldProbe(t) {
		koopman = crchash.Hardware
	}
	for _, tc := range []struct {
		p    crchash.Params
		want crchash.Kind
	}{
		{crchash.CRC32IEEE, crchash.Hardware},
		{crchash.CRC32C, crchash.Hardware},
		{crchash.CRC32K, koopman},
		{ccitt, crchash.Table},
		{crc5, crchash.Bitwise},
	} {
		e := crchash.New(tc.p)
		if got := crchash.KindOf(e); got != tc.want || !got.Admits(tc.p) {
			t.Errorf("%s: New built %v, want %v", tc.p.Name, got, tc.want)
		}
		auto, err := crchash.NewEngine(tc.p, crchash.Auto)
		if err != nil || crchash.KindOf(auto) != tc.want {
			t.Errorf("%s: NewEngine(Auto) = %v, %v; want %v", tc.p.Name, crchash.KindOf(auto), err, tc.want)
		}
	}
}

func TestAutoEngineChecksumsCorrectly(t *testing.T) {
	// Whatever Auto picks, the checksum must match the bitwise
	// reference — selection can never change the answer.
	data := []byte("123456789")
	for _, p := range []crchash.Params{crchash.CRC32IEEE, crchash.CRC32C, crchash.CRC32K} {
		ref, err := crchash.NewEngine(p, crchash.Bitwise)
		if err != nil {
			t.Fatal(err)
		}
		want := ref.Checksum(data)
		if p.Check != 0 && want != p.Check {
			t.Fatalf("%s: reference %#x disagrees with catalogue check %#x", p.Name, want, p.Check)
		}
		if got := crchash.New(p).Checksum(data); got != want {
			t.Errorf("%s: auto engine checksum %#x, want %#x", p.Name, got, want)
		}
	}
}

// foldProbe reports whether this host runs the carry-less-multiply fold
// for generators hash/crc32 does not accelerate: the hardware engine
// for CRC-32K reports it as Accelerated, and only amd64 has the fold.
func foldProbe(t *testing.T) bool {
	t.Helper()
	e, err := crchash.NewEngine(crchash.CRC32K, crchash.Hardware)
	if err != nil {
		t.Fatal(err)
	}
	on := e.(interface{ Accelerated() bool }).Accelerated()
	if on && runtime.GOARCH != "amd64" {
		t.Fatalf("fold reported on %s, which has no fold kernel", runtime.GOARCH)
	}
	return on
}
