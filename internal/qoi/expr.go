// Package qoi implements the paper's theory of derivable quantities of
// interest (§IV): an expression tree over the basis of Table II
// (polynomials, square root, radical, addition, multiplication, division,
// and functional composition), with two operations:
//
//   - Eval: the QoI value at a reconstructed data point, and
//   - the estimator: the guaranteed supremum Δ(f, x, ε) of the QoI error
//     given the reconstructed values x and the L∞ error bounds ε used during
//     retrieval (Definitions 4–5).
//
// The estimator implements Theorems 1 (polynomial), 2 (square root), 3
// (radical), 4 (addition), 5 (multiplication), 6 (division), 7–8 (additive /
// multiplicative closure) and 9 with Lemmas 1–2 (composition) — composition
// is simply the recursion over the tree, with each node receiving its
// children's (value, bound) pairs. A polynomial Σaᵢxⁱ is a Sum of weighted
// Pow nodes: Theorem 1 bounds each monomial and Theorems 7–8 the weighted
// sum. Each theorem is one scalar helper (sumTerm, mulBound, divBound,
// powBound, sqrtBound, radicalBound); Program, the compiled form a
// retrieval runs, applies them over blocks of points, and TheoremBound
// over one point.
//
// A node whose theorem precondition fails (ε ≥ |x₂| in division, ε ≥ |x+c|
// in the radical, or a negative radicand) reports a +Inf bound; the
// retrieval loop reacts by tightening primary-data bounds (or masking
// exact-zero points, §V-A). A zero incoming bound always yields a zero
// outgoing bound, so retrieval at full fidelity terminates.
package qoi

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Expr is a derivable QoI over a vector of variables addressed by index.
// The interface is sealed: its nodes are the types this package defines,
// built by Parse, the library's QoIs or the node literals. A type outside
// the package satisfies Expr only by embedding one, and the estimator, Vars
// and Compile then see exactly the expression it embeds.
type Expr interface {
	// Eval computes the QoI at vals.
	Eval(vals []float64) float64
	// String renders the expression.
	String() string
	// self returns the node itself, boxed anew; own calls it only on a
	// type that embeds one.
	self() Expr
}

// own returns the package-defined node e is: e itself, or the node a type
// outside the package embeds. It returns nil for a nil e, and for a type
// whose embedded node is a nil interface or pointer.
func own(e Expr) (node Expr) {
	switch e.(type) {
	case nil:
		return nil
	case Var, Const, Sum, Mul, Div, Pow, Sqrt, Radical, Abs, Exp, Log:
		return e
	}
	// self is promoted from the embedded node, and every node's self only
	// returns its receiver, so the call fails only on a nil embedding.
	defer func() {
		if recover() != nil {
			node = nil
		}
	}()
	return e.self()
}

// Var references input variable i.
type Var struct{ Index int }

// Eval implements Expr.
func (v Var) Eval(vals []float64) float64 { return vals[v.Index] }

// String implements Expr.
func (v Var) String() string { return fmt.Sprintf("x%d", v.Index) }

func (v Var) self() Expr { return v }

// Const is a constant (zero error).
type Const struct{ C float64 }

// Eval implements Expr.
func (c Const) Eval([]float64) float64 { return c.C }

// String implements Expr.
func (c Const) String() string { return trimFloat(c.C) }

func (c Const) self() Expr { return c }

// Sum is the weighted sum Σ wᵢ·termᵢ (Theorems 4, 7, 8).
type Sum struct {
	Weights []float64
	Terms   []Expr
}

// Add builds an unweighted sum.
func Add(terms ...Expr) Expr {
	w := make([]float64, len(terms))
	for i := range w {
		w[i] = 1
	}
	return Sum{Weights: w, Terms: terms}
}

// Sub builds a − b.
func Sub(a, b Expr) Expr { return Sum{Weights: []float64{1, -1}, Terms: []Expr{a, b}} }

// Scale builds w·x (Theorem 8).
func Scale(w float64, x Expr) Expr { return Sum{Weights: []float64{w}, Terms: []Expr{x}} }

// Eval implements Expr.
func (s Sum) Eval(vals []float64) float64 {
	acc := 0.0
	for i, t := range s.Terms {
		acc += s.Weights[i] * t.Eval(vals)
	}
	return acc
}

func (s Sum) self() Expr { return s }

// noNaN maps a NaN bound to +Inf, the estimator's "no guarantee here".
// A theorem's formula yields NaN only where an operand value overflowed
// or is undefined (∞·0, ∞−∞), and no theorem covers such a point.
func noNaN(v, b float64) (float64, float64) {
	if math.IsNaN(b) {
		return v, math.Inf(1)
	}
	return v, b
}

// sumTerm adds one weighted term to a running (value, bound) pair of
// Theorems 4, 7 and 8, starting from (0, 0): Δ(Σwᵢfᵢ) ≤ Σ|wᵢ|Δ(fᵢ).
func sumTerm(acc, d, w, v, dv float64) (float64, float64) {
	return acc + w*v, d + math.Abs(w)*dv
}

// String implements Expr.
func (s Sum) String() string {
	var b strings.Builder
	for i, t := range s.Terms {
		w := s.Weights[i]
		if i == 0 {
			if w == 1 {
				b.WriteString(t.String())
			} else if w == -1 {
				fmt.Fprintf(&b, "-%s", t.String())
			} else {
				fmt.Fprintf(&b, "%s*%s", trimFloat(w), t.String())
			}
			continue
		}
		switch {
		case w == 1:
			fmt.Fprintf(&b, " + %s", t.String())
		case w == -1:
			fmt.Fprintf(&b, " - %s", t.String())
		case w < 0:
			fmt.Fprintf(&b, " - %s*%s", trimFloat(-w), t.String())
		default:
			fmt.Fprintf(&b, " + %s*%s", trimFloat(w), t.String())
		}
	}
	return "(" + b.String() + ")"
}

// Mul is the product of two QoIs (Theorem 5; n-ary products fold pairwise
// via Theorem 9's composition).
type Mul struct{ A, B Expr }

// Eval implements Expr.
func (m Mul) Eval(vals []float64) float64 { return m.A.Eval(vals) * m.B.Eval(vals) }

func (m Mul) self() Expr { return m }

// mulBound is Theorem 5: Δ(x₁x₂) ≤ |x₁|ε₂ + |x₂|ε₁ + ε₁ε₂.
func mulBound(va, da, vb, db float64) (float64, float64) {
	return va * vb, math.Abs(va)*db + math.Abs(vb)*da + da*db
}

// String implements Expr.
func (m Mul) String() string { return fmt.Sprintf("(%s * %s)", m.A, m.B) }

// Div is the quotient of two QoIs (Theorem 6).
type Div struct{ Num, Den Expr }

// Eval implements Expr.
func (d Div) Eval(vals []float64) float64 { return d.Num.Eval(vals) / d.Den.Eval(vals) }

func (d Div) self() Expr { return d }

// divBound is Theorem 6: Δ(x₁/x₂) ≤ (|x₁|ε₂+|x₂|ε₁) / (|x₂|·min(|x₂−ε₂|,|x₂+ε₂|)),
// valid only while ε₂ < |x₂|.
// Four absolute values put it past the inlining budget, so divColumn
// repeats it over a column.
func divBound(vn, dn, vd, dd float64) (float64, float64) {
	val := vn / vd
	if dn == 0 && dd == 0 {
		return val, 0
	}
	if !(dd < math.Abs(vd)) {
		return val, math.Inf(1)
	}
	den := math.Abs(vd) * min(math.Abs(vd-dd), math.Abs(vd+dd))
	return val, (math.Abs(vn)*dd + math.Abs(vd)*dn) / den
}

// String implements Expr.
func (d Div) String() string { return fmt.Sprintf("(%s / %s)", d.Num, d.Den) }

// Pow is the integer power xⁿ, 0 ≤ n ≤ 64 (Theorem 1 for a monomial; a
// polynomial is a Sum of them). Parse builds no other exponent and Compile
// refuses any other. A negative N has no derivable bound: Eval is NaN and
// TheoremBound +Inf.
type Pow struct {
	N int
	X Expr
}

// Eval implements Expr.
func (p Pow) Eval(vals []float64) float64 {
	if p.N < 0 {
		return math.NaN()
	}
	return intPow(p.X.Eval(vals), p.N)
}

func (p Pow) self() Expr { return p }

// maxExponent is the largest integer power Parse lowers a formula to, the
// largest Pow exponent Compile accepts, and the size of powBound's |x|ᵏ
// table.
const maxExponent = 64

// binomials[n][i-1] is C(n,i) for 1 ≤ i ≤ n ≤ maxExponent, computed once
// by the float64 recurrence c = c·(n−i+1)/i, so powBound and the program's
// Pow kernels read the very values that recurrence gives.
var binomials = func() [][]float64 {
	t := make([][]float64, maxExponent+1)
	for n := range t {
		t[n] = make([]float64, n)
		c := 1.0
		for i := 1; i <= n; i++ {
			c = c * float64(n-i+1) / float64(i)
			t[n][i-1] = c
		}
	}
	return t
}()

// powBound is Theorem 1 for xⁿ, 0 ≤ n ≤ maxExponent: Δ(xⁿ) ≤
// Σᵢ₌₁ⁿ C(n,i)|x|ⁿ⁻ⁱ εⁱ, summed in increasing i. |x|ᵏ is tabulated in
// pa[:n] and εⁱ built as i grows, by the products intPow makes, so each
// term is the one C(n,i)·intPow(|x|, n−i)·intPow(ε, i) gives, in O(n).
// Every entry read is written first, so a column of points shares one
// table its caller zeroes once. The compiled program's Pow kernels repeat
// these terms in this order, so both agree to the bit.
func powBound(v, d float64, n int, pa *[maxExponent]float64) float64 {
	if d == 0 {
		return 0
	}
	av := math.Abs(v)
	pa[0] = 1
	for k := 1; k < n; k++ {
		pa[k] = pa[k-1] * av
	}
	binom := binomials[n]
	bound, di := 0.0, 1.0
	for i := 1; i <= n; i++ {
		di *= d
		bound += binom[i-1] * pa[n-i] * di
	}
	return bound
}

func intPow(x float64, n int) float64 {
	r := 1.0
	for i := 0; i < n; i++ {
		r *= x
	}
	return r
}

// String implements Expr.
func (p Pow) String() string { return fmt.Sprintf("%s^%d", p.X, p.N) }

// Sqrt is √x (Theorem 2).
type Sqrt struct{ X Expr }

// Eval implements Expr.
func (s Sqrt) Eval(vals []float64) float64 { return math.Sqrt(s.X.Eval(vals)) }

func (s Sqrt) self() Expr { return s }

// sqrtBound is Theorem 2: Δ(√x) ≤ ε/(√max(x−ε,0) + √x). The estimate blows
// up as x→0 with ε>0 — the behaviour the paper's outlier mask exists for.
// It is small enough to inline, so the program's Sqrt column is this
// function in a loop: both roots are taken before the cases are told apart,
// and the builtin max, unlike math.Max, is no call.
func sqrtBound(v, d float64) (float64, float64) {
	val := math.Sqrt(v)
	den := math.Sqrt(max(v-d, 0)) + val
	switch {
	case v < 0:
		// Reconstructed radicand negative: the true value cannot be
		// certified until the bound shrinks.
		return math.NaN(), math.Float64frombits(infBits)
	case d == 0:
		return val, 0
	case den == 0:
		return val, math.Float64frombits(infBits)
	}
	return val, d / den
}

// infBits is +Inf. math.Inf(1) tests its sign, which would cost sqrtBound
// its inlining.
const infBits = 0x7ff0000000000000

// String implements Expr.
func (s Sqrt) String() string { return fmt.Sprintf("sqrt(%s)", s.X) }

// Radical is 1/(x + c) (Theorem 3).
type Radical struct {
	C float64
	X Expr
}

// Eval implements Expr.
func (r Radical) Eval(vals []float64) float64 { return 1 / (r.X.Eval(vals) + r.C) }

func (r Radical) self() Expr { return r }

// radicalBound is Theorem 3: Δ(1/(x+c)) ≤ ε/(min(|x+c−ε|,|x+c+ε|)·|x+c|),
// valid only while ε < |x+c|.
// Like divBound, it is past the inlining budget, and radicalColumn repeats
// it over a column.
func radicalBound(c, v, d float64) (float64, float64) {
	u := v + c
	val := 1 / u
	if d == 0 {
		return val, 0
	}
	if !(d < math.Abs(u)) {
		return val, math.Inf(1)
	}
	return val, d / (min(math.Abs(u-d), math.Abs(u+d)) * math.Abs(u))
}

// String implements Expr.
func (r Radical) String() string { return fmt.Sprintf("1/(%s + %s)", r.X, trimFloat(r.C)) }

// TheoremBound is the estimator at one point: e's value at the
// reconstructed vals and its guaranteed error supremum given per-variable
// L∞ bounds ebs, +Inf where a theorem precondition fails. Program.Eval
// applies the same helpers over a block of points and agrees with it bit
// for bit, so it is the tests' oracle for the program.
func TheoremBound(e Expr, vals, ebs []float64) (value, bound float64) {
	switch x := own(e).(type) {
	case nil:
		return math.NaN(), math.Inf(1)
	case Var:
		value, bound = vals[x.Index], ebs[x.Index]
	case Const:
		value, bound = x.C, 0
	case Sum:
		for i, t := range x.Terms {
			v, d := TheoremBound(t, vals, ebs)
			value, bound = sumTerm(value, bound, x.Weights[i], v, d)
		}
		value, bound = noNaN(value, bound)
	case Mul:
		va, da := TheoremBound(x.A, vals, ebs)
		vb, db := TheoremBound(x.B, vals, ebs)
		value, bound = noNaN(mulBound(va, da, vb, db))
	case Div:
		vn, dn := TheoremBound(x.Num, vals, ebs)
		vd, dd := TheoremBound(x.Den, vals, ebs)
		value, bound = noNaN(divBound(vn, dn, vd, dd))
	case Pow:
		if x.N < 0 {
			return math.NaN(), math.Inf(1)
		}
		v, d := TheoremBound(x.X, vals, ebs)
		var pa [maxExponent]float64
		value, bound = noNaN(intPow(v, x.N), powBound(v, d, x.N, &pa))
	case Sqrt:
		v, d := TheoremBound(x.X, vals, ebs)
		value, bound = noNaN(sqrtBound(v, d))
	case Radical:
		v, d := TheoremBound(x.X, vals, ebs)
		value, bound = radicalBound(x.C, v, d)
	case Abs:
		value, bound = absBound(TheoremBound(x.X, vals, ebs))
	case Exp:
		value, bound = noNaN(expBound(TheoremBound(x.X, vals, ebs)))
	case Log:
		value, bound = logBound(TheoremBound(x.X, vals, ebs))
	}
	return value, bound
}

// Vars returns the sorted distinct variable indices used by e.
func Vars(e Expr) []int {
	set := map[int]bool{}
	collectVars(e, set)
	out := make([]int, 0, len(set))
	for i := range set {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

func collectVars(e Expr, set map[int]bool) {
	switch n := own(e).(type) {
	case Var:
		set[n.Index] = true
	case Sum:
		for _, t := range n.Terms {
			collectVars(t, set)
		}
	case Mul:
		collectVars(n.A, set)
		collectVars(n.B, set)
	case Div:
		collectVars(n.Num, set)
		collectVars(n.Den, set)
	case Pow:
		collectVars(n.X, set)
	case Sqrt:
		collectVars(n.X, set)
	case Radical:
		collectVars(n.X, set)
	case Abs:
		collectVars(n.X, set)
	case Exp:
		collectVars(n.X, set)
	case Log:
		collectVars(n.X, set)
	}
}

func trimFloat(v float64) string {
	s := fmt.Sprintf("%g", v)
	return s
}
