package qoi

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// sameBits reports bit-identical floats, any NaN matching any NaN.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// differentialTargets is every expression the program must reproduce: the
// paper's QoIs, parsed formulas over the extensions and constants, and
// polynomials written as Sums of Const and Pow, with zero weights.
func differentialTargets(t *testing.T) []Expr {
	t.Helper()
	var out []Expr
	for _, q := range GEQoIs() {
		out = append(out, q.Expr)
	}
	for _, q := range S3DProducts() {
		out = append(out, q.Expr)
	}
	fields := []string{"a", "b", "c", "d", "e", "f"}
	for _, src := range []string{
		"abs(a - b) + exp(c) * 0.5",
		"log(a) - log(abs(b) + 2)",
		"exp(-a^2) / (b - 3)",
		"sqrt(a*b) + 7 - 2*c",
		"a^4 - b^5 + c^6",
		"a^7*b + (c/d)^8",
		"(a + b)^9 - e^9",
		"c^17 * f",
		"a^2.5 + log(exp(f))",
		"-f / (a*a + b*b)",
	} {
		e, err := Parse(src, fields)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		out = append(out, e)
	}
	return append(out,
		Sum{Weights: []float64{0, 3, 0}, Terms: []Expr{Var{0}, Pow{N: 2, X: Var{0}}, Pow{N: 3, X: Var{0}}}},
		Sum{Weights: []float64{1, -2, 0.25}, Terms: []Expr{Const{1}, Div{Num: Var{1}, Den: Var{2}}, Pow{N: 3, X: Div{Num: Var{1}, Den: Var{2}}}}},
		Sum{Weights: []float64{0}, Terms: []Expr{Pow{N: 0, X: Sqrt{X: Var{3}}}}},
		Radical{C: -1, X: Abs{X: Var{5}}},
		Const{C: math.Pi},
		Var{Index: 4},
	)
}

// differentialInputs draws m points for nv variables, mixing ordinary
// values with the cases where the theorems refuse or degenerate: ε = 0,
// ε ≥ |x|, negative and zero values (radicands, denominators, logarithm
// arguments), and +Inf bounds.
func differentialInputs(rng *rand.Rand, nv, m int) (x, eb [][]float64) {
	x, eb = make([][]float64, nv), make([][]float64, nv)
	for v := range x {
		x[v], eb[v] = make([]float64, m), make([]float64, m)
		for j := range x[v] {
			switch rng.Intn(6) {
			case 0:
				x[v][j] = 0
			case 1:
				x[v][j] = -rng.Float64()
			case 2:
				x[v][j] = 3
			default:
				x[v][j] = rng.NormFloat64() * 4
			}
			switch rng.Intn(6) {
			case 0:
				eb[v][j] = 0
			case 1:
				eb[v][j] = math.Abs(x[v][j]) * (1 + rng.Float64())
			case 2:
				eb[v][j] = math.Inf(1)
			default:
				eb[v][j] = rng.Float64() * 1e-2
			}
		}
	}
	return x, eb
}

func TestProgramMatchesTreeWalk(t *testing.T) {
	all := differentialTargets(t)
	const nv = 8
	rng := rand.New(rand.NewSource(31))
	var s Scratch
	// A full block, a partial one, a block of one point (the shape
	// Algorithm 4's reassign evaluates), and a pass with only every third
	// target active: a target's bounds must not depend on which others run.
	// The Scratch then serves a smaller program and a full block again, as
	// a Retriever's does across requests.
	for _, pass := range []struct {
		targets []Expr
		m       int
		active  func(k int) bool
	}{
		{all, BlockSize, func(int) bool { return true }},
		{all, 37, func(int) bool { return true }},
		{all, 1, func(int) bool { return true }},
		{all, BlockSize, func(k int) bool { return k%3 == 1 }},
		{all[len(all)-3:], 64, func(int) bool { return true }},
		{all, BlockSize, func(int) bool { return true }},
	} {
		targets := pass.targets
		p, err := Compile(targets)
		if err != nil {
			t.Fatal(err)
		}
		x, eb := differentialInputs(rng, nv, pass.m)
		active := make([]bool, len(targets))
		for k := range active {
			active[k] = pass.active(k)
		}
		p.Eval(&s, active, x, eb, pass.m)
		vals, ebs := make([]float64, nv), make([]float64, nv)
		for k, e := range targets {
			if !active[k] {
				continue
			}
			gotB := p.Bound(&s, k)
			gotV, _ := s.col(p.roots[k])
			if len(gotB) != pass.m {
				t.Fatalf("target %d: %d bounds for %d points", k, len(gotB), pass.m)
			}
			for j := 0; j < pass.m; j++ {
				for v := range vals {
					vals[v], ebs[v] = x[v][j], eb[v][j]
				}
				wantV, wantB := TheoremBound(e, vals, ebs)
				if !sameBits(gotV[j], wantV) || !sameBits(gotB[j], wantB) {
					t.Fatalf("%s at vals=%v ebs=%v: program (%v, %v), TheoremBound (%v, %v)",
						e, vals, ebs, gotV[j], gotB[j], wantV, wantB)
				}
			}
		}
	}
}

// TestPowBoundTablesMatchIntPow pins powBound's tabulated path to the
// O(n²) sum it replaces, term for term, bit for bit.
func TestPowBoundTablesMatchIntPow(t *testing.T) {
	ref := func(v, d float64, n int) float64 {
		if d == 0 {
			return 0
		}
		av := math.Abs(v)
		bound, c := 0.0, 1.0
		for i := 1; i <= n; i++ {
			c = c * float64(n-i+1) / float64(i)
			bound += c * intPow(av, n-i) * intPow(d, i)
		}
		return bound
	}
	x, eb := differentialInputs(rand.New(rand.NewSource(33)), 1, 2000)
	var pa [maxExponent]float64 // shared by every call, as powColumn shares it
	for n := 0; n <= maxExponent; n++ {
		for j := range x[0] {
			if got, want := powBound(x[0][j], eb[0][j], n, &pa), ref(x[0][j], eb[0][j], n); !sameBits(got, want) {
				t.Fatalf("powBound(%v, %v, %d) = %v, want %v", x[0][j], eb[0][j], n, got, want)
			}
		}
	}
}

// kernelInputs is a column of every pairing of the special values (0, −0,
// negatives, ±Inf, NaN, subnormals) for x and ε, followed by ordinary
// random points: the inputs the program's kernels are held to the
// scalar helpers on.
func kernelInputs() (xv, xd []float64) {
	sub := math.SmallestNonzeroFloat64
	xs := []float64{0, math.Copysign(0, -1), -2.5, -1, 1.5, 3, math.Inf(1), math.Inf(-1), math.NaN(), sub, -sub, 0x1p-1030}
	ds := []float64{0, 1e-3, 0.5, 2, math.Inf(1), math.NaN(), sub, 0x1p-1030}
	for _, x := range xs {
		for _, d := range ds {
			xv, xd = append(xv, x), append(xd, d)
		}
	}
	rx, rd := differentialInputs(rand.New(rand.NewSource(34)), 1, BlockSize-len(xv))
	return append(xv, rx[0]...), append(xd, rd[0]...)
}

// bitsEqual compares by Float64bits, NaN payloads included.
func bitsEqual(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// powExponents is every exponent through 17 and the largest Compile
// accepts: the kernels for 2, 3 and 7 and the per-point loop on either
// side of each.
var powExponents = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, maxExponent}

// TestPowColumnMatchesScalar: powColumn's bounds against the scalar
// powBound, bit for bit, for every exponent in powExponents.
func TestPowColumnMatchesScalar(t *testing.T) {
	xv, xd := kernelInputs()
	val, bnd := make([]float64, len(xv)), make([]float64, len(xv))
	for _, n := range powExponents {
		powColumn(val, bnd, xv, xd, n)
		for j := range xv {
			var pa [maxExponent]float64
			if want := powBound(xv[j], xd[j], n, &pa); !bitsEqual(bnd[j], want) {
				t.Fatalf("n=%d x=%v ε=%v: column %v, scalar %v", n, xv[j], xd[j], bnd[j], want)
			}
		}
	}
}

// TestPowValueColumnMatchesIntPow: powColumn's values against intPow, bit
// for bit, for every exponent in powExponents and one below the largest. A
// NaN x only has to give a NaN: its sign never reaches a bound, which takes
// |x|.
func TestPowValueColumnMatchesIntPow(t *testing.T) {
	xv, xd := kernelInputs()
	xv[len(xv)-1] = math.Copysign(math.NaN(), -1)
	val, bnd := make([]float64, len(xv)), make([]float64, len(xv))
	for _, n := range append(powExponents, maxExponent-1) {
		powColumn(val, bnd, xv, xd, n)
		for j, x := range xv {
			if want := intPow(x, n); !bitsEqual(val[j], want) && !(math.IsNaN(x) && math.IsNaN(val[j])) {
				t.Fatalf("n=%d x=%v: column %v (%#x), intPow %v (%#x)", n, x, val[j], math.Float64bits(val[j]), want, math.Float64bits(want))
			}
		}
	}
}

// Where two NaNs meet in one operation, which one's bits survive depends
// on the operand order the compiler picks for that instruction, so the
// two-operand kernels and the Sum are held to sameBits, which matches any
// NaN with any NaN: a NaN bound reads as +Inf wherever it is used.

// kernelPairs is every pairing of two kernelInputs points, for the
// two-operand kernels: the first operand's (x, ε) in a and the second's in
// b, the special values against each other first.
func kernelPairs() (av, ad, bv, bd []float64) {
	xv, xd := kernelInputs()
	for i := range xv {
		for k := range xv {
			av, ad = append(av, xv[i]), append(ad, xd[i])
			bv, bd = append(bv, xv[k]), append(bd, xd[k])
		}
	}
	return av, ad, bv, bd
}

// TestDivColumnMatchesScalar: divColumn against divBound, by sameBits, at
// every pairing of numerator and denominator points.
func TestDivColumnMatchesScalar(t *testing.T) {
	nv, nd, dv, dd := kernelPairs()
	val, bnd := make([]float64, len(nv)), make([]float64, len(nv))
	divColumn(val, bnd, nv, nd, dv, dd)
	for j := range nv {
		if wv, wb := divBound(nv[j], nd[j], dv[j], dd[j]); !sameBits(val[j], wv) || !sameBits(bnd[j], wb) {
			t.Fatalf("(%v ± %v)/(%v ± %v): column (%v, %v), scalar (%v, %v)", nv[j], nd[j], dv[j], dd[j], val[j], bnd[j], wv, wb)
		}
	}
}

// TestRadicalColumnMatchesScalar: radicalColumn against radicalBound, bit
// for bit, for offsets that cancel the special values and the library's.
func TestRadicalColumnMatchesScalar(t *testing.T) {
	xv, xd := kernelInputs()
	val, bnd := make([]float64, len(xv)), make([]float64, len(xv))
	for _, c := range []float64{0, math.Copysign(0, -1), 1, -1.5, 2.5, Sutherland, math.Inf(-1), math.NaN()} {
		radicalColumn(val, bnd, c, xv, xd)
		for j := range xv {
			if wv, wb := radicalBound(c, xv[j], xd[j]); !sameBits(val[j], wv) || !sameBits(bnd[j], wb) {
				t.Fatalf("1/(%v ± %v + %v): column (%v, %v), scalar (%v, %v)", xv[j], xd[j], c, val[j], bnd[j], wv, wb)
			}
		}
	}
}

// evalColumns compiles e alone and evaluates it over the columns of x and
// eb, a block at a time, returning its value and bound at every point as
// the node's columns hold them, before Bound maps NaN to +Inf.
func evalColumns(t *testing.T, e Expr, x, eb [][]float64) (val, bnd []float64) {
	t.Helper()
	p, err := Compile([]Expr{e})
	if err != nil {
		t.Fatal(err)
	}
	var s Scratch
	bx, beb := make([][]float64, len(x)), make([][]float64, len(x))
	for lo := 0; lo < len(x[0]); lo += BlockSize {
		m := min(BlockSize, len(x[0])-lo)
		for v := range x {
			bx[v], beb[v] = x[v][lo:lo+m], eb[v][lo:lo+m]
		}
		p.Eval(&s, []bool{true}, bx, beb, m)
		v, b := s.col(p.roots[0])
		val, bnd = append(val, v...), append(bnd, b...)
	}
	return val, bnd
}

// TestSqrtColumnMatchesScalar: the program's Sqrt column against
// sqrtBound, bit for bit, on every kernelInputs point.
func TestSqrtColumnMatchesScalar(t *testing.T) {
	xv, xd := kernelInputs()
	val, bnd := evalColumns(t, Sqrt{X: Var{0}}, [][]float64{xv}, [][]float64{xd})
	for j := range xv {
		if wv, wb := sqrtBound(xv[j], xd[j]); !bitsEqual(val[j], wv) || !bitsEqual(bnd[j], wb) {
			t.Fatalf("sqrt(%v ± %v): column (%v, %v), scalar (%v, %v)", xv[j], xd[j], val[j], bnd[j], wv, wb)
		}
	}
}

// TestSumColumnMatchesScalar: the program's Sum columns of 1 to 4 terms
// against sumTerm from (0, 0), by sameBits. Every term is drawn from
// signed zeros, ±1 and kernelInputs, and the weights include −0 and −1, so
// a sum whose every product is −0 must still read +0, as 0 + −0 does.
func TestSumColumnMatchesScalar(t *testing.T) {
	xv, xd := kernelInputs()
	negZero := math.Copysign(0, -1)
	special := []float64{0, negZero, 1, -1}
	rng := rand.New(rand.NewSource(37))
	x, eb := make([][]float64, 4), make([][]float64, 4)
	for v := range x {
		x[v], eb[v] = make([]float64, 4*len(xv)), make([]float64, 4*len(xv))
		for j := range x[v] {
			if k := rng.Intn(len(xv) + 4); k < len(xv) {
				x[v][j], eb[v][j] = xv[k], xd[k]
			} else {
				x[v][j], eb[v][j] = special[rng.Intn(4)], special[rng.Intn(2)]
			}
		}
	}
	weights := []float64{1, negZero, -1, 0.5}
	for n := 1; n <= 4; n++ {
		for r := range weights {
			w := make([]float64, n)
			for k := range w {
				w[k] = weights[(r+k)%len(weights)]
			}
			terms := make([]Expr, n)
			for k := range terms {
				terms[k] = Var{k}
			}
			val, bnd := evalColumns(t, Sum{Weights: w, Terms: terms}, x, eb)
			for j := range val {
				wv, wb := 0.0, 0.0
				for k := range terms {
					wv, wb = sumTerm(wv, wb, w[k], x[k][j], eb[k][j])
				}
				if !sameBits(val[j], wv) || !sameBits(bnd[j], wb) {
					t.Fatalf("%d terms, weights %v, point %d: column (%v, %v), scalar (%v, %v)", n, w, j, val[j], bnd[j], wv, wb)
				}
			}
		}
	}
}

// TestBinomialTableMatchesRecurrence: every table entry is the value the
// running recurrence reaches at that step.
func TestBinomialTableMatchesRecurrence(t *testing.T) {
	for n := 0; n <= maxExponent; n++ {
		c := 1.0
		for i := 1; i <= n; i++ {
			c = c * float64(n-i+1) / float64(i)
			if !bitsEqual(binomials[n][i-1], c) {
				t.Fatalf("C(%d,%d): table %v, recurrence %v", n, i, binomials[n][i-1], c)
			}
		}
	}
}

// TestNegativeAndHugePowers: a negative exponent has no derivable bound,
// so TheoremBound refuses it, and Compile refuses it and an exponent past
// the table with an error, while it accepts the largest.
func TestNegativeAndHugePowers(t *testing.T) {
	neg := Pow{N: -3, X: Var{0}}
	if v := neg.Eval([]float64{2}); !math.IsNaN(v) {
		t.Fatalf("x^-3 evaluates to %v, want NaN", v)
	}
	if _, b := TheoremBound(neg, []float64{2}, []float64{0}); !math.IsInf(b, 1) {
		t.Fatalf("x^-3 bound %v, want +Inf", b)
	}
	for _, e := range []Expr{neg, Pow{N: maxExponent + 1, X: Var{0}}} {
		if p, err := Compile([]Expr{Var{0}, e}); err == nil || p != nil {
			t.Fatalf("Compile accepted %v", e)
		}
	}
	if _, err := Compile([]Expr{Pow{N: maxExponent, X: Var{0}}}); err != nil {
		t.Fatalf("Compile refused the largest exponent: %v", err)
	}
}

// TestCompileRefusesMalformedNodes: a hand-built node with a nil operand,
// at any depth and however it is wrapped, or a Sum whose weights and terms
// differ in number, is a Compile error, not a panic. TheoremBound gives
// the nil operand no bound.
func TestCompileRefusesMalformedNodes(t *testing.T) {
	for name, e := range map[string]Expr{
		"nil":                 nil,
		"embedded nil":        foreign{},
		"nil sum term":        Add(Var{0}, nil),
		"nil mul operand":     Mul{A: Var{0}},
		"nil sqrt operand":    Sqrt{},
		"deep nil":            Div{Num: Var{0}, Den: foreign{Sqrt{X: foreign{}}}},
		"nil embedded ptr":    foreign{(*Var)(nil)},
		"sum without weights": Sum{Terms: []Expr{Var{0}, Var{1}}},
	} {
		if p, err := Compile([]Expr{Var{0}, e}); err == nil || p != nil {
			t.Errorf("%s: Compile accepted %T", name, e)
		}
	}
	if _, b := TheoremBound(Sqrt{}, []float64{1}, []float64{0}); !math.IsInf(b, 1) {
		t.Fatalf("sqrt of nil bounds as %v, want +Inf", b)
	}
}

func TestCompileSharesSubexpressions(t *testing.T) {
	var ge []Expr
	for _, q := range GEQoIs() {
		ge = append(ge, q.Expr)
	}
	p, err := Compile(ge)
	if err != nil {
		t.Fatal(err)
	}
	// 68 tree nodes; the five variables, Temperature, total velocity and
	// the Mach number are each built once, and PT's constant term, the 1
	// of 1 + γ/2·Mach², is a Const node of its own.
	if len(p.nodes) > 26 {
		t.Fatalf("GEQoIs compile to %d nodes, want at most 26", len(p.nodes))
	}
	// The key is the exact bits: Sums whose weights differ only in a 0
	// against a −0, or in another weight, and a −0 constant are nodes of
	// their own, while a repeated target shares its root.
	negZero := math.Copysign(0, -1)
	terms := []Expr{Var{0}, Pow{N: 2, X: Var{0}}}
	p, err = Compile([]Expr{
		Sum{Weights: []float64{1, 0}, Terms: terms},
		Sum{Weights: []float64{1, negZero}, Terms: terms},
		Sum{Weights: []float64{1, 3}, Terms: terms},
		Const{C: 0},
		Const{C: negZero},
		Sum{Weights: []float64{1, 0}, Terms: terms},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.nodes) != 7 {
		t.Fatalf("%d nodes, want 7 (x0, x0^2, three sums, +0, −0)", len(p.nodes))
	}
	if p.roots[0] != p.roots[5] {
		t.Fatal("equal targets compiled to different nodes")
	}
}

// TestKeyIsCanonical: a target's key depends on its structure alone, not
// on the program it was compiled in or how its tree was built, and it
// tells apart every structural difference the hash-cons key does.
func TestKeyIsCanonical(t *testing.T) {
	fields := []string{"a", "b", "c"}
	parse := func(src string) Expr {
		e, err := Parse(src, fields)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		return e
	}
	key := func(targets []Expr, k int) string {
		p, err := Compile(targets)
		if err != nil {
			t.Fatal(err)
		}
		return p.Keys()[k]
	}
	e := parse("sqrt(a^2 + b^2) / (a^2 + 1)")
	alone := key([]Expr{e}, 0)
	for _, targets := range [][]Expr{
		{parse("a^2 + c"), parse("sqrt(a^2 + b^2) / (a^2 + 1)")},
		{parse("b^2"), parse("c"), e, e},
	} {
		k := len(targets) - 1
		if got := key(targets, k); got != alone {
			t.Fatalf("key of %v changes with the program it is compiled in", targets[k])
		}
	}
	distinct := []Expr{
		e,
		parse("sqrt(a^2 + b^2) / (a^2 + 2)"),
		parse("sqrt(b^2 + a^2) / (a^2 + 1)"),
		parse("sqrt(a^2 + c^2) / (a^2 + 1)"),
		parse("sqrt(a^3 + b^2) / (a^2 + 1)"),
		Sum{Weights: []float64{1, 0}, Terms: []Expr{Var{0}, Pow{N: 2, X: Var{0}}}},
		Sum{Weights: []float64{1, math.Copysign(0, -1)}, Terms: []Expr{Var{0}, Pow{N: 2, X: Var{0}}}},
		Const{C: 0},
		Const{C: math.Copysign(0, -1)},
		Sum{Weights: []float64{1, 1}, Terms: []Expr{Var{0}, Var{1}}},
		Sum{Weights: []float64{1, -1}, Terms: []Expr{Var{0}, Var{1}}},
		Mul{A: Var{0}, B: Var{1}},
		Mul{A: Var{1}, B: Var{0}},
	}
	seen := map[string]int{}
	for i, d := range distinct {
		k := key([]Expr{d}, 0)
		if j, dup := seen[k]; dup {
			t.Fatalf("%v and %v share a key", distinct[j], d)
		}
		seen[k] = i
	}
}

// foreign is a type outside the node set, which satisfies Expr only by
// embedding one.
type foreign struct{ Expr }

// TestEmbeddedExprIsWhatItEmbeds: a type that embeds an Expr compiles,
// bounds and lists its variables exactly as the expression it embeds.
func TestEmbeddedExprIsWhatItEmbeds(t *testing.T) {
	plain := Div{Num: Temperature().Expr, Den: Sqrt{X: Var{2}}}
	wrapped := Div{Num: foreign{Temperature().Expr}, Den: foreign{Sqrt{X: foreign{Var{2}}}}}
	p, err := Compile([]Expr{plain, foreign{wrapped}})
	if err != nil {
		t.Fatal(err)
	}
	if keys := p.Keys(); keys[0] != keys[1] {
		t.Fatal("an embedded expression compiled to another program")
	}
	vals, ebs := []float64{0, 0, 4, 101325, 1.2}, []float64{0, 0, 0.1, 10, 1e-4}
	wv, wb := TheoremBound(plain, vals, ebs)
	if v, b := TheoremBound(foreign{wrapped}, vals, ebs); !bitsEqual(v, wv) || !bitsEqual(b, wb) {
		t.Fatalf("embedded expression bounds as (%v, %v), want (%v, %v)", v, b, wv, wb)
	}
	if got, want := Vars(foreign{wrapped}), Vars(plain); !slices.Equal(got, want) {
		t.Fatalf("Vars = %v, want %v", got, want)
	}
}

// TestMaxBoundMatchesBoundScan: MaxBound against Bound followed by a strict
// > scan, the fold it replaces, over every target of a program whose roots
// are its inputs, so a column can hold any bits. Each sub-range, from
// every running maximum, must give the same maximum, bit for bit, and the
// same first point. The columns put NaN first, NaN after +Inf, ties, ±0
// and subnormals, and the ranges start and end mid-block.
func TestMaxBoundMatchesBoundScan(t *testing.T) {
	inf, nan, negZero := math.Inf(1), math.NaN(), math.Copysign(0, -1)
	sub := math.SmallestNonzeroFloat64
	rng := rand.New(rand.NewSource(38))
	draw := []float64{0, negZero, sub, 2 * sub, 0x1p-1030, 1, 1, 2.5, 2.5, 7, inf, nan}
	random := make([]float64, BlockSize)
	for j := range random {
		random[j] = draw[rng.Intn(len(draw))]
	}
	columns := [][]float64{
		{nan, 1, inf, 2},
		{1, inf, nan, 3, inf},
		{2, 5, 5, 1, 5},
		{negZero, 0, negZero},
		{sub, 2 * sub, sub, 0, 2 * sub},
		{nan, nan},
		{3},
		random,
	}
	p, err := Compile([]Expr{Var{1}, Var{0}})
	if err != nil {
		t.Fatal(err)
	}
	starts := []float64{0, negZero, sub, 1, 5, inf}
	var folded, scanned Scratch
	for c, col := range columns {
		m := len(col)
		rev := slices.Clone(col)
		slices.Reverse(rev)
		x := [][]float64{make([]float64, m), make([]float64, m)}
		p.Eval(&folded, []bool{true, true}, x, [][]float64{slices.Clone(col), slices.Clone(rev)}, m)
		p.Eval(&scanned, []bool{true, true}, x, [][]float64{slices.Clone(col), rev}, m)
		for k := range 2 {
			bnd := p.Bound(&scanned, k)
			for _, lo := range []int{0, 1, m / 3, m / 2, m - 1} {
				for _, hi := range []int{lo, lo + 1, m / 2, m - 1, m} {
					if hi < lo || hi > m {
						continue
					}
					for _, m0 := range starts {
						want, wantArg := m0, -1
						for j := lo; j < hi; j++ {
							if bnd[j] > want {
								want, wantArg = bnd[j], j
							}
						}
						if got, arg := p.MaxBound(&folded, k, lo, hi, m0); !bitsEqual(got, want) || arg != wantArg {
							t.Fatalf("column %d, target %d, [%d, %d) from %v: MaxBound (%v at %d), scan (%v at %d)",
								c, k, lo, hi, m0, got, arg, want, wantArg)
						}
					}
				}
			}
		}
	}
}

func TestScratchReuseDoesNotAllocate(t *testing.T) {
	var ge []Expr
	for _, q := range GEQoIs() {
		ge = append(ge, q.Expr)
	}
	p, err := Compile(ge)
	if err != nil {
		t.Fatal(err)
	}
	x, eb := differentialInputs(rand.New(rand.NewSource(32)), GENumFields, BlockSize)
	active := []bool{true, true, true, true, true, true}
	var s Scratch
	p.Eval(&s, active, x, eb, BlockSize)
	if n := testing.AllocsPerRun(10, func() { p.Eval(&s, active, x, eb, BlockSize) }); n != 0 {
		t.Fatalf("Eval on a warm Scratch allocates %v times", n)
	}
}

// BenchmarkProgramEvalGE evaluates the six GE QoIs over one full block.
func BenchmarkProgramEvalGE(b *testing.B) {
	var ge []Expr
	for _, q := range GEQoIs() {
		ge = append(ge, q.Expr)
	}
	p, err := Compile(ge)
	if err != nil {
		b.Fatal(err)
	}
	x, eb := differentialInputs(rand.New(rand.NewSource(36)), GENumFields, BlockSize)
	active := []bool{true, true, true, true, true, true}
	var s Scratch
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Eval(&s, active, x, eb, BlockSize)
	}
}
