package qoi

import (
	"math"
	"math/rand"
	"testing"
)

func TestAbsTheorem(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	e := Abs{X: Var{0}}
	for trial := 0; trial < 50; trial++ {
		x := rng.NormFloat64() * 5
		eb := math.Abs(rng.NormFloat64())
		checkSound(t, "abs", e, []float64{x}, []float64{eb}, rng)
	}
	// Tightness: with |x| ≥ ε the bound equals ε exactly.
	if _, b := TheoremBound(e, []float64{10}, []float64{0.5}); b != 0.5 {
		t.Fatalf("abs bound = %g, want 0.5", b)
	}
	if _, b := TheoremBound(e, []float64{-3}, []float64{0}); b != 0 {
		t.Fatal("abs exact should have zero bound")
	}
}

func TestExpTheorem(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	e := Exp{X: Var{0}}
	for trial := 0; trial < 50; trial++ {
		x := rng.NormFloat64() * 3
		eb := math.Abs(rng.NormFloat64()) * 0.5
		checkSound(t, "exp", e, []float64{x}, []float64{eb}, rng)
	}
	// Exactness: the sup is attained at ξ = +ε.
	v, b := TheoremBound(e, []float64{1}, []float64{0.25})
	wantV := math.E
	wantB := math.E * math.Expm1(0.25)
	if math.Abs(v-wantV) > 1e-15 || math.Abs(b-wantB) > 1e-15 {
		t.Fatalf("exp bound (%g,%g), want (%g,%g)", v, b, wantV, wantB)
	}
	if _, b := TheoremBound(e, []float64{2}, []float64{0}); b != 0 {
		t.Fatal("exp exact should have zero bound")
	}
}

func TestLogTheorem(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	e := Log{X: Var{0}}
	for trial := 0; trial < 50; trial++ {
		x := math.Abs(rng.NormFloat64())*10 + 0.5
		eb := rng.Float64() * 0.4 * x // ε < x
		checkSound(t, "log", e, []float64{x}, []float64{eb}, rng)
	}
	// Precondition ε ≥ x: +Inf.
	if _, b := TheoremBound(e, []float64{1}, []float64{1}); !math.IsInf(b, 1) {
		t.Fatal("log precondition violation should be +Inf")
	}
	// Non-positive reconstructed argument: NaN value, +Inf bound.
	if v, b := TheoremBound(e, []float64{-1}, []float64{0.1}); !math.IsNaN(v) || !math.IsInf(b, 1) {
		t.Fatalf("log negative: %g %g", v, b)
	}
	if _, b := TheoremBound(e, []float64{5}, []float64{0}); b != 0 {
		t.Fatal("log exact should have zero bound")
	}
}

func TestExtCompositions(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	// log(1 + exp(x)) — softplus, stacked extensions.
	softplus := Log{X: Sum{Weights: []float64{1, 1}, Terms: []Expr{Const{1}, Exp{X: Var{0}}}}}
	for trial := 0; trial < 40; trial++ {
		x := rng.NormFloat64() * 2
		eb := rng.Float64() * 0.3
		checkSound(t, "softplus", softplus, []float64{x}, []float64{eb}, rng)
	}
	// abs inside sqrt: sqrt(abs(x)) is always well-defined at the value level.
	sa := Sqrt{X: Abs{X: Var{0}}}
	for trial := 0; trial < 40; trial++ {
		x := rng.NormFloat64() * 4
		if math.Abs(x) < 0.5 {
			continue
		}
		eb := rng.Float64() * 0.2
		checkSound(t, "sqrt-abs", sa, []float64{x}, []float64{eb}, rng)
	}
}

func TestParseExtensions(t *testing.T) {
	fields := []string{"x"}
	cases := []struct {
		src  string
		val  float64
		want float64
	}{
		{"abs(x)", -4, 4},
		{"exp(x)", 1, math.E},
		{"log(x)", math.E, 1},
		{"log(exp(x))", 3.5, 3.5},
		{"abs(x) + exp(0)", -2, 3},
	}
	for _, c := range cases {
		e, err := Parse(c.src, fields)
		if err != nil {
			t.Errorf("%q: %v", c.src, err)
			continue
		}
		if got := e.Eval([]float64{c.val}); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%q(%g) = %g, want %g", c.src, c.val, got, c.want)
		}
	}
	// Vars traverses the new nodes.
	e := MustParse("log(exp(x) + abs(x))", fields)
	if vs := Vars(e); len(vs) != 1 || vs[0] != 0 {
		t.Fatalf("vars = %v", vs)
	}
	if s := e.String(); len(s) == 0 {
		t.Fatal("empty String")
	}
}

func TestParseExtErrors(t *testing.T) {
	for _, src := range []string{"abs x", "exp(", "log()"} {
		if _, err := Parse(src, []string{"x"}); err == nil {
			t.Errorf("%q: expected error", src)
		}
	}
}
