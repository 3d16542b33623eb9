package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"testing"

	"koopmancrc"
)

// TestPolyRefDefaults: width defaults to 32 and notation to koopman.
func TestPolyRefDefaults(t *testing.T) {
	p, err := PolyRef{Poly: "0xba0dc66b"}.Polynomial()
	if err != nil {
		t.Fatal(err)
	}
	if p != koopmancrc.Koopman32K {
		t.Fatalf("parsed %v, want %v", p, koopmancrc.Koopman32K)
	}
	for _, bad := range []PolyRef{
		{},
		{Poly: "zz"},
		{Poly: "0x83", Width: 8, Notation: "bogus"},
	} {
		if _, err := bad.Polynomial(); err == nil {
			t.Errorf("PolyRef %+v parsed without error", bad)
		}
	}
	// Normal notation resolves the same polynomial.
	n, err := PolyRef{Poly: "0x1edc6f41", Notation: "normal"}.Polynomial()
	if err != nil {
		t.Fatal(err)
	}
	if n != koopmancrc.CastagnoliISCSI {
		t.Fatalf("normal notation parsed %v, want %v", n, koopmancrc.CastagnoliISCSI)
	}
}

// TestEvaluateResponseRoundTrip: the shared wire type marshals and
// unmarshals without loss — the property the CLI/server byte-equality
// contract rests on.
func TestEvaluateResponseRoundTrip(t *testing.T) {
	an := koopmancrc.NewAnalyzer(koopmancrc.MustPolynomial(8, koopmancrc.Koopman, "0x83"), koopmancrc.WithMaxHD(6))
	rep, err := an.Evaluate(context.Background(), 64)
	if err != nil {
		t.Fatal(err)
	}
	orig := NewEvaluateResponse(rep, 6, []WeightCount{{Length: 32, W2: 1, W3: 2, W4: 3}})
	data, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	var decoded EvaluateResponse
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*orig, decoded) {
		t.Fatalf("round trip lost data:\norig %+v\ngot  %+v", *orig, decoded)
	}
	if orig.Poly != "0x83" || orig.Width != 8 || len(orig.Bands) == 0 || len(orig.Transitions) == 0 {
		t.Fatalf("response fields: %+v", orig)
	}
}

// TestHexStrMatchesSprintf: the wire spelling of a polynomial word is
// byte-identical to fmt's %#x.
func TestHexStrMatchesSprintf(t *testing.T) {
	for _, v := range []uint64{0, 1, 0x82608edb, math.MaxUint64} {
		if got, want := hexStr(v), fmt.Sprintf("%#x", v); got != want {
			t.Errorf("hexStr(%d) = %q, want %q", v, got, want)
		}
	}
}
