package qoi

import (
	"fmt"
	"math"
)

// ext.go extends the derivable-QoI basis beyond Table II, following the
// paper's §IV-D remark that the theory extends to any operator with a
// derivable error bound. Each new operator ships with the same contract as
// the originals: its helper returns a guaranteed supremum of |f(x')−f(x)|
// over |x'−x| ≤ ε, computed from the reconstruction alone, and a zero
// incoming bound yields a zero outgoing bound.

// Abs is |x|.
type Abs struct{ X Expr }

// Eval implements Expr.
func (a Abs) Eval(vals []float64) float64 { return math.Abs(a.X.Eval(vals)) }

func (a Abs) self() Expr { return a }

// absBound is the absolute-value theorem: Δ(|x|) ≤ ε, by the reverse
// triangle inequality ||x+ξ| − |x|| ≤ |ξ| ≤ ε. The bound is attained
// whenever |x| ≥ ε, so it is tight.
func absBound(v, d float64) (float64, float64) { return math.Abs(v), d }

// String implements Expr.
func (a Abs) String() string { return fmt.Sprintf("abs(%s)", a.X) }

// Exp is eˣ.
type Exp struct{ X Expr }

// Eval implements Expr.
func (e Exp) Eval(vals []float64) float64 { return math.Exp(e.X.Eval(vals)) }

func (e Exp) self() Expr { return e }

// expBound is the exponential theorem: Δ(eˣ) = eˣ·(e^ε − 1), exactly: the
// supremum of |e^{x+ξ} − eˣ| over |ξ| ≤ ε is attained at ξ = +ε and equals
// eˣ(e^ε − 1) ≥ eˣ(1 − e^{−ε}).
func expBound(v, d float64) (float64, float64) {
	val := math.Exp(v)
	if d == 0 {
		return val, 0
	}
	return val, val * math.Expm1(d)
}

// String implements Expr.
func (e Exp) String() string { return fmt.Sprintf("exp(%s)", e.X) }

// Log is the natural logarithm ln(x), defined for x > 0.
type Log struct{ X Expr }

// Eval implements Expr.
func (l Log) Eval(vals []float64) float64 { return math.Log(l.X.Eval(vals)) }

func (l Log) self() Expr { return l }

// logBound is the logarithm theorem: for ε < x, Δ(ln x) = ln(x/(x−ε)) =
// −ln(1 − ε/x), exactly: the supremum over |ξ| ≤ ε is attained going
// downward at ξ = −ε since ln is concave. The precondition ε < x mirrors
// Theorem 3's radical condition; outside it the bound is +Inf and the
// retrieval loop tightens.
func logBound(v, d float64) (float64, float64) {
	if v <= 0 {
		return math.NaN(), math.Inf(1)
	}
	val := math.Log(v)
	if d == 0 {
		return val, 0
	}
	if !(d < v) {
		return val, math.Inf(1)
	}
	return val, -math.Log1p(-d / v)
}

// String implements Expr.
func (l Log) String() string { return fmt.Sprintf("log(%s)", l.X) }
