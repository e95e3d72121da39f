package qoi

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// bruteForceSup samples perturbations |x'−x| ≤ ε on a dense grid (plus the
// corners) and returns the largest observed QoI deviation. The theorems
// guarantee TheoremBound dominates this for any sample.
func bruteForceSup(e Expr, vals, ebs []float64, rng *rand.Rand, samples int) float64 {
	base := e.Eval(vals)
	pert := make([]float64, len(vals))
	sup := 0.0
	try := func() {
		v := e.Eval(pert)
		if math.IsNaN(v) || math.IsNaN(base) {
			return
		}
		if d := math.Abs(v - base); d > sup {
			sup = d
		}
	}
	// Corners of the hyper-box.
	n := len(vals)
	if n <= 12 {
		for mask := 0; mask < 1<<n; mask++ {
			for i := range vals {
				if mask>>i&1 == 1 {
					pert[i] = vals[i] + ebs[i]
				} else {
					pert[i] = vals[i] - ebs[i]
				}
			}
			try()
		}
	}
	for s := 0; s < samples; s++ {
		for i := range vals {
			pert[i] = vals[i] + (rng.Float64()*2-1)*ebs[i]
		}
		try()
	}
	return sup
}

func checkSound(t *testing.T, name string, e Expr, vals, ebs []float64, rng *rand.Rand) {
	t.Helper()
	val, bound := TheoremBound(e, vals, ebs)
	evalVal := e.Eval(vals)
	if !math.IsNaN(val) && !math.IsNaN(evalVal) && val != evalVal {
		t.Errorf("%s: TheoremBound value %g != Eval %g", name, val, evalVal)
	}
	if math.IsInf(bound, 1) {
		return // infinite bounds are trivially sound
	}
	// The theorems hold in exact arithmetic; evaluating f twice in floats
	// adds a few ulp of noise, so allow a relative 1e-9 + tiny absolute
	// slack proportional to the value magnitude.
	sup := bruteForceSup(e, vals, ebs, rng, 300)
	slack := bound*1e-9 + 1e-12*(1+math.Abs(val))
	if sup > bound+slack {
		t.Errorf("%s at vals=%v ebs=%v: observed sup %g > bound %g", name, vals, ebs, sup, bound)
	}
}

func TestTheorem1Polynomial(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		x := rng.NormFloat64() * 5
		eb := math.Abs(rng.NormFloat64())
		for n := 1; n <= 6; n++ {
			checkSound(t, "pow", Pow{N: n, X: Var{0}}, []float64{x}, []float64{eb}, rng)
		}
		// 2 − x + 0.5x² + 3x³ (Theorems 1, 7 and 8).
		poly := Sum{
			Weights: []float64{2, -1, 0.5, 3},
			Terms:   []Expr{Const{1}, Pow{N: 1, X: Var{0}}, Pow{N: 2, X: Var{0}}, Pow{N: 3, X: Var{0}}},
		}
		checkSound(t, "poly", poly, []float64{x}, []float64{eb}, rng)
	}
}

func TestTheorem2Sqrt(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	e := Sqrt{X: Var{0}}
	for trial := 0; trial < 50; trial++ {
		x := math.Abs(rng.NormFloat64()) * 10
		eb := math.Abs(rng.NormFloat64())
		checkSound(t, "sqrt", e, []float64{x}, []float64{eb}, rng)
	}
	// x = 0 with ε > 0 must report an infinite (unusable) bound.
	if _, b := TheoremBound(e, []float64{0}, []float64{0.1}); !math.IsInf(b, 1) {
		t.Errorf("sqrt at 0: bound = %g, want +Inf", b)
	}
	// Zero incoming error must give zero bound even at x = 0.
	if _, b := TheoremBound(e, []float64{0}, []float64{0}); b != 0 {
		t.Errorf("sqrt exact: bound = %g, want 0", b)
	}
	// Negative reconstructed radicand: NaN value, +Inf bound.
	if v, b := TheoremBound(e, []float64{-1}, []float64{0.5}); !math.IsNaN(v) || !math.IsInf(b, 1) {
		t.Errorf("sqrt negative: %g, %g", v, b)
	}
}

func TestTheorem3Radical(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		c := rng.NormFloat64() * 3
		x := rng.NormFloat64() * 5
		if math.Abs(x+c) < 1e-3 {
			continue
		}
		eb := math.Abs(rng.NormFloat64()) * 0.3 * math.Abs(x+c) // ε < |x+c|
		e := Radical{C: c, X: Var{0}}
		checkSound(t, "radical", e, []float64{x}, []float64{eb}, rng)
	}
	// Precondition violation ε ≥ |x+c|: +Inf.
	e := Radical{C: 1, X: Var{0}}
	if _, b := TheoremBound(e, []float64{0}, []float64{2}); !math.IsInf(b, 1) {
		t.Errorf("radical precondition: bound = %g, want +Inf", b)
	}
	if _, b := TheoremBound(e, []float64{0}, []float64{0}); b != 0 {
		t.Errorf("radical exact: bound = %g, want 0", b)
	}
}

func TestTheorem4Addition(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	e := Sum{Weights: []float64{2, -3, 0.5}, Terms: []Expr{Var{0}, Var{1}, Var{2}}}
	for trial := 0; trial < 30; trial++ {
		vals := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		ebs := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		checkSound(t, "sum", e, vals, ebs, rng)
	}
	// The additive bound is exactly Σ|wᵢ|εᵢ.
	_, b := TheoremBound(e, []float64{1, 1, 1}, []float64{0.1, 0.2, 0.4})
	want := 2*0.1 + 3*0.2 + 0.5*0.4
	if math.Abs(b-want) > 1e-15 {
		t.Errorf("additive bound %g, want %g", b, want)
	}
}

func TestTheorem5Multiplication(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	e := Mul{A: Var{0}, B: Var{1}}
	for trial := 0; trial < 50; trial++ {
		vals := []float64{rng.NormFloat64() * 4, rng.NormFloat64() * 4}
		ebs := []float64{rng.Float64(), rng.Float64()}
		checkSound(t, "mul", e, vals, ebs, rng)
	}
	// Exact formula check: |x1|ε2 + |x2|ε1 + ε1ε2.
	_, b := TheoremBound(e, []float64{-3, 2}, []float64{0.1, 0.2})
	want := 3*0.2 + 2*0.1 + 0.1*0.2
	if math.Abs(b-want) > 1e-15 {
		t.Errorf("mul bound %g, want %g", b, want)
	}
}

func TestTheorem6Division(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	e := Div{Num: Var{0}, Den: Var{1}}
	for trial := 0; trial < 50; trial++ {
		x1 := rng.NormFloat64() * 4
		x2 := rng.NormFloat64() * 4
		if math.Abs(x2) < 1e-2 {
			continue
		}
		ebs := []float64{rng.Float64(), rng.Float64() * 0.4 * math.Abs(x2)}
		checkSound(t, "div", e, []float64{x1, x2}, ebs, rng)
	}
	// Precondition ε₂ ≥ |x₂| → +Inf.
	if _, b := TheoremBound(e, []float64{1, 0.5}, []float64{0, 1}); !math.IsInf(b, 1) {
		t.Errorf("div precondition: bound %g, want +Inf", b)
	}
}

func TestTheorems789Composition(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// f1+f2, a·f, f1∘f2 stacked: sqrt(2·(x0²+x1²) + 1).
	e := Sqrt{X: Sum{
		Weights: []float64{2, 1},
		Terms: []Expr{
			Add(Pow{N: 2, X: Var{0}}, Pow{N: 2, X: Var{1}}),
			Const{1},
		},
	}}
	for trial := 0; trial < 50; trial++ {
		vals := []float64{rng.NormFloat64() * 3, rng.NormFloat64() * 3}
		ebs := []float64{rng.Float64() * 0.5, rng.Float64() * 0.5}
		checkSound(t, "composite", e, vals, ebs, rng)
	}
}

func TestLemma12UnivariateMultivariateComposition(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	// g∘{f1,f2}: (x0²)·(√x1) then f∘g: √ of that again.
	e := Sqrt{X: Mul{A: Pow{N: 2, X: Var{0}}, B: Sqrt{X: Var{1}}}}
	for trial := 0; trial < 50; trial++ {
		vals := []float64{rng.NormFloat64()*2 + 3, math.Abs(rng.NormFloat64())*5 + 1}
		ebs := []float64{rng.Float64() * 0.3, rng.Float64() * 0.3}
		checkSound(t, "lemma", e, vals, ebs, rng)
	}
}

func TestGEQoIsSoundOnRealisticValues(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	qois := GEQoIs()
	if len(qois) != 6 {
		t.Fatalf("want 6 GE QoIs, got %d", len(qois))
	}
	for trial := 0; trial < 40; trial++ {
		// Realistic CFD magnitudes: velocities ±200 m/s, P ≈ 1e5 Pa, D ≈ 1.2.
		vals := []float64{
			rng.NormFloat64() * 100,
			rng.NormFloat64() * 100,
			rng.NormFloat64() * 100,
			101325 * (1 + 0.2*rng.NormFloat64()),
			1.2 * (1 + 0.1*rng.NormFloat64()),
		}
		if vals[GED] < 0.5 || vals[GEP] < 1e4 {
			continue
		}
		ebs := []float64{1e-3, 1e-3, 1e-3, 1e-1, 1e-5}
		for _, q := range qois {
			checkSound(t, q.Name, q.Expr, vals, ebs, rng)
		}
	}
}

func TestGEQoIValuesPhysical(t *testing.T) {
	// Standard air at sea level: T ≈ 288 K, C ≈ 340 m/s, μ ≈ 1.8e-5.
	vals := []float64{100, 0, 0, 101325, 1.225}
	temp := Temperature().Expr.Eval(vals)
	if math.Abs(temp-288.1) > 1 {
		t.Errorf("T = %g, want ≈ 288", temp)
	}
	c := SoundSpeed().Expr.Eval(vals)
	if math.Abs(c-340.3) > 1 {
		t.Errorf("C = %g, want ≈ 340", c)
	}
	mach := MachNumber().Expr.Eval(vals)
	if math.Abs(mach-100/340.3) > 1e-2 {
		t.Errorf("Mach = %g", mach)
	}
	mu := Viscosity().Expr.Eval(vals)
	if math.Abs(mu-1.79e-5) > 2e-7 {
		t.Errorf("mu = %g, want ≈ 1.79e-5", mu)
	}
	// At Mach ≈ 0.294 the isentropic ratio is (1+0.2·M²)^3.5 ≈ 1.0604^...
	// PT/P ≈ 1.228, so PT ≈ 124.4 kPa.
	pt := TotalPressure().Expr.Eval(vals)
	if pt <= 101325 || pt > 1.3*101325 {
		t.Errorf("PT = %g, want within (P, 1.3P)", pt)
	}
	vt := TotalVelocity(0, 1, 2).Expr.Eval(vals)
	if vt != 100 {
		t.Errorf("VTOT = %g", vt)
	}
}

func TestS3DProducts(t *testing.T) {
	qois := S3DProducts()
	if len(qois) != 4 {
		t.Fatalf("want 4 products, got %d", len(qois))
	}
	vals := make([]float64, 8)
	for i := range vals {
		vals[i] = float64(i + 1)
	}
	if got := qois[0].Expr.Eval(vals); got != vals[S3DO2]*vals[S3DH] {
		t.Errorf("x1*x3 = %g", got)
	}
	rng := rand.New(rand.NewSource(10))
	ebs := make([]float64, 8)
	for i := range ebs {
		ebs[i] = 1e-4
	}
	for _, q := range qois {
		checkSound(t, q.Name, q.Expr, vals, ebs, rng)
	}
}

func TestZeroErrorPropagatesToZeroBound(t *testing.T) {
	zero := make([]float64, 5)
	vals := []float64{1, 2, 3, 101325, 1.2}
	for _, q := range GEQoIs() {
		if _, b := TheoremBound(q.Expr, vals, zero); b != 0 {
			t.Errorf("%s: zero input error gives bound %g", q.Name, b)
		}
	}
}

func TestVarsCollection(t *testing.T) {
	e := MachNumber().Expr
	got := Vars(e)
	want := []int{GEVx, GEVy, GEVz, GEP, GED}
	if len(got) != len(want) {
		t.Fatalf("Vars = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Vars = %v, want %v", got, want)
		}
	}
	if v := Vars(Const{3}); len(v) != 0 {
		t.Errorf("const vars = %v", v)
	}
	if v := Vars(Mul{A: Var{2}, B: Var{2}}); len(v) != 1 || v[0] != 2 {
		t.Errorf("dup vars = %v", v)
	}
}

func TestStringsRender(t *testing.T) {
	for _, q := range GEQoIs() {
		if s := q.Expr.String(); len(s) == 0 {
			t.Errorf("%s: empty String()", q.Name)
		}
	}
	if s := (Sub(Var{0}, Var{1})).String(); s != "(x0 - x1)" {
		t.Errorf("Sub string = %q", s)
	}
}

func TestPropertyRandomCompositesSound(t *testing.T) {
	// Random expression trees over 3 variables must always produce sound
	// bounds wherever the bound is finite.
	var build func(rng *rand.Rand, depth int) Expr
	build = func(rng *rand.Rand, depth int) Expr {
		if depth <= 0 || rng.Intn(4) == 0 {
			if rng.Intn(3) == 0 {
				return Const{C: rng.NormFloat64() * 2}
			}
			return Var{Index: rng.Intn(3)}
		}
		switch rng.Intn(6) {
		case 0:
			return Add(build(rng, depth-1), build(rng, depth-1))
		case 1:
			return Mul{A: build(rng, depth-1), B: build(rng, depth-1)}
		case 2:
			return Div{Num: build(rng, depth-1), Den: build(rng, depth-1)}
		case 3:
			return Pow{N: 1 + rng.Intn(3), X: build(rng, depth-1)}
		case 4:
			return Sqrt{X: build(rng, depth-1)}
		default:
			return Radical{C: rng.NormFloat64(), X: build(rng, depth-1)}
		}
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := build(rng, 4)
		vals := []float64{rng.NormFloat64() * 3, rng.NormFloat64() * 3, rng.NormFloat64() * 3}
		ebs := []float64{rng.Float64() * 0.1, rng.Float64() * 0.1, rng.Float64() * 0.1}
		val, bound := TheoremBound(e, vals, ebs)
		if math.IsInf(bound, 1) || math.IsNaN(val) || math.IsNaN(bound) {
			return true // indeterminate points are allowed to be refused
		}
		sup := bruteForceSup(e, vals, ebs, rand.New(rand.NewSource(seed+1)), 200)
		if math.IsNaN(sup) {
			return true
		}
		return sup <= bound*(1+1e-9)+1e-300
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
