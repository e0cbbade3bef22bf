package floatenc

import (
	"math"
	"math/rand"
	"testing"
)

func TestRoundTripExact(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	vs := make([]float64, 513)
	for i := range vs {
		switch i % 5 {
		case 0:
			vs[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
		case 1:
			vs[i] = -rng.Float64()
		case 2:
			vs[i] = float64(rng.Int63())
		case 3:
			vs[i] = math.SmallestNonzeroFloat64 * float64(1+rng.Intn(3))
		default:
			vs[i] = 0
		}
	}
	got, err := Decode(Encode(vs))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(vs) {
		t.Fatalf("len %d, want %d", len(got), len(vs))
	}
	for i := range vs {
		if math.Float64bits(got[i]) != math.Float64bits(vs[i]) {
			t.Fatalf("value %d: bits %x != %x", i, math.Float64bits(got[i]), math.Float64bits(vs[i]))
		}
	}
}

func TestEmptyAndErrors(t *testing.T) {
	if Encode(nil) != "" {
		t.Fatal("Encode(nil) not empty")
	}
	if vs, err := Decode(""); err != nil || vs != nil {
		t.Fatalf("Decode(\"\") = %v, %v", vs, err)
	}
	if _, err := Decode("!!!not-base64!!!"); err == nil {
		t.Fatal("invalid base64 accepted")
	}
	// 4 bytes is not a whole float64.
	if _, err := Decode("AAAAAA=="); err == nil {
		t.Fatal("ragged byte count accepted")
	}
	if _, err := DecodeLen(Encode([]float64{1, 2}), 3); err == nil {
		t.Fatal("wrong length accepted")
	}
	if vs, err := DecodeLen(Encode([]float64{1, 2}), 2); err != nil || len(vs) != 2 {
		t.Fatalf("DecodeLen failed: %v, %v", vs, err)
	}
}

// FuzzFloatencDecode round-trips arbitrary strings: Decode must never
// panic, and whatever it accepts must re-encode to a string that
// decodes to the same values bit for bit.
func FuzzFloatencDecode(f *testing.F) {
	f.Add(Encode([]float64{0, -1, math.Pi, math.Inf(1), math.NaN(), math.SmallestNonzeroFloat64}))
	f.Fuzz(func(t *testing.T, s string) {
		vs, err := Decode(s)
		if err != nil {
			return
		}
		again, err := Decode(Encode(vs))
		if err != nil {
			t.Fatalf("re-encoded values refused: %v", err)
		}
		if len(again) != len(vs) {
			t.Fatalf("round trip changed the length: %d vs %d", len(again), len(vs))
		}
		for i := range vs {
			if math.Float64bits(again[i]) != math.Float64bits(vs[i]) {
				t.Fatalf("value %d: bits %x != %x", i, math.Float64bits(again[i]), math.Float64bits(vs[i]))
			}
		}
	})
}
