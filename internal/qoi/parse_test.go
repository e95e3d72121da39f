package qoi

import (
	"errors"
	"math"
	"testing"
)

var geFields = []string{"Vx", "Vy", "Vz", "P", "D"}

func TestParseVTOT(t *testing.T) {
	e, err := Parse("sqrt(Vx^2 + Vy^2 + Vz^2)", geFields)
	if err != nil {
		t.Fatal(err)
	}
	vals := []float64{3, 4, 0, 0, 0}
	if got := e.Eval(vals); got != 5 {
		t.Fatalf("got %g, want 5", got)
	}
	// Parsed tree must agree with the hand-built QoI on values and bounds.
	ref := TotalVelocity(0, 1, 2).Expr
	ebs := []float64{0.1, 0.2, 0.3, 0, 0}
	v1, b1 := TheoremBound(e, vals, ebs)
	v2, b2 := TheoremBound(ref, vals, ebs)
	if v1 != v2 || math.Abs(b1-b2) > 1e-15 {
		t.Fatalf("parsed (%g,%g) vs built (%g,%g)", v1, b1, v2, b2)
	}
}

func TestParseArithmetic(t *testing.T) {
	cases := []struct {
		src  string
		vals []float64
		want float64
	}{
		{"1 + 2 * 3", nil, 7},
		{"(1 + 2) * 3", nil, 9},
		{"2 ^ 3", nil, 8},
		{"-Vx", []float64{4}, -4},
		{"Vx - Vy - Vz", []float64{10, 3, 2}, 5},
		{"Vx / Vy / Vz", []float64{24, 3, 2}, 4},
		{"Vx * -2", []float64{5}, -10},
		{"2e2 + 1", nil, 201},
		{"Vx^0", []float64{9}, 1},
	}
	for _, c := range cases {
		e, err := Parse(c.src, geFields)
		if err != nil {
			t.Errorf("%q: %v", c.src, err)
			continue
		}
		vals := c.vals
		if vals == nil {
			vals = make([]float64, 5)
		}
		if got := e.Eval(vals); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%q = %g, want %g", c.src, got, c.want)
		}
	}
}

func TestParseHalfIntegerPower(t *testing.T) {
	e, err := Parse("Vx^1.5", geFields)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := e.Eval([]float64{4}), 8.0; got != want {
		t.Fatalf("4^1.5 = %g, want %g", got, want)
	}
	// x^3.5 lowers to sqrt(x^7): the Equation (5) decomposition.
	e2, err := Parse("Vx^3.5", geFields)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := e2.Eval([]float64{2}), math.Pow(2, 3.5); math.Abs(got-want) > 1e-12 {
		t.Fatalf("2^3.5 = %g, want %g", got, want)
	}
	if _, ok := e2.(Sqrt); !ok {
		t.Fatalf("x^3.5 should lower to Sqrt, got %T", e2)
	}
}

func TestParseConstantFoldIntoScale(t *testing.T) {
	e, err := Parse("2 * Vx", geFields)
	if err != nil {
		t.Fatal(err)
	}
	// Constant multiplication must use the exact Theorem 8 bound a·Δ(f),
	// not the looser generic product bound.
	_, b := TheoremBound(e, []float64{10}, []float64{0.5})
	if b != 1.0 {
		t.Fatalf("2*Vx bound = %g, want exactly 1", b)
	}
}

func TestParseGEFormulas(t *testing.T) {
	// All six GE QoIs written as formulas must match the builders.
	formulas := map[string]QoI{
		"sqrt(Vx^2+Vy^2+Vz^2)": TotalVelocity(0, 1, 2),
		"P / (287.1 * D)":      Temperature(),
	}
	vals := []float64{120, -35, 60, 98000, 1.18}
	ebs := []float64{1e-2, 1e-2, 1e-2, 5, 1e-4}
	for src, ref := range formulas {
		e, err := Parse(src, geFields)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		v1, b1 := TheoremBound(e, vals, ebs)
		v2, b2 := TheoremBound(ref.Expr, vals, ebs)
		if math.Abs(v1-v2) > 1e-9*math.Abs(v2) {
			t.Errorf("%q value %g vs %g", src, v1, v2)
		}
		if math.Abs(b1-b2) > 1e-9*b2 {
			t.Errorf("%q bound %g vs %g", src, b1, b2)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"Vx +",
		"(Vx",
		"sqrt Vx",
		"sqrt(Vx",
		"unknown_field",
		"Vx ^ Vy",
		"Vx ^ -2",
		"Vx ^ 0.3",
		"Vx * * Vy",
		"1 2",
		"Vx @ Vy",
	}
	for _, src := range bad {
		if _, err := Parse(src, geFields); err == nil {
			t.Errorf("%q: expected parse error", src)
		}
	}
}

// TestParseExponentCap: exponents whose power would exceed 64 are parse
// errors. 1e300 and 9.3e18 used to overflow the int conversion into a
// certified zero bound, 1e9 to loop that many times per point, and
// 4294967296.5 to lower to a power of 2³³+1; 16 and 17 sit either side of
// powBound's table.
func TestParseExponentCap(t *testing.T) {
	for _, c := range []struct {
		exp  string
		want Expr // nil: ErrParse
	}{
		{"1e300", nil},
		{"9.3e18", nil},
		{"1e9", nil},
		{"4294967296.5", nil},
		{"65", nil},
		{"32.5", nil},
		{"16", Pow{N: 16, X: Var{0}}},
		{"17", Pow{N: 17, X: Var{0}}},
		{"64", Pow{N: 64, X: Var{0}}},
		{"31.5", Sqrt{X: Pow{N: 63, X: Var{0}}}},
	} {
		e, err := Parse("Vx^"+c.exp, geFields)
		if c.want == nil {
			if !errors.Is(err, ErrParse) {
				t.Errorf("Vx^%s: got (%v, %v), want ErrParse", c.exp, e, err)
			}
			continue
		}
		if err != nil || e.String() != c.want.String() {
			t.Errorf("Vx^%s: got (%v, %v), want %v", c.exp, e, err, c.want)
		}
	}
}

func TestMustParsePanicsOnError(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustParse("(((", geFields)
}

func TestParseWhitespaceAndCase(t *testing.T) {
	e, err := Parse("  SQRT( Vx ^ 2 )  ", geFields)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Eval([]float64{-3, 0, 0, 0, 0}); got != 3 {
		t.Fatalf("got %g", got)
	}
}
