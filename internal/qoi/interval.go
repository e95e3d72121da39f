package qoi

import (
	"math"
)

// interval.go provides an alternative, interval-arithmetic QoI error
// estimator used as an ablation baseline against the paper's theorem-based
// bounds (§IV). Instead of propagating scalar error suprema through
// per-operator theorems, it propagates the full value interval
// [x−ε, x+ε] through outward interval arithmetic and reports the maximal
// deviation of the interval from the center value. Both estimators are
// sound; their relative tightness differs per operator (intervals are
// exact for monotone univariate maps but can be looser through additive
// cancellation, while the theorems bake in the structure of each basis
// function). BenchmarkAblationEstimator compares them.

// Interval is a closed interval [Lo, Hi].
type Interval struct{ Lo, Hi float64 }

// width returns Hi − Lo.
func (iv Interval) width() float64 { return iv.Hi - iv.Lo }

// valid reports a well-formed finite-ordered interval.
func (iv Interval) valid() bool {
	return !math.IsNaN(iv.Lo) && !math.IsNaN(iv.Hi) && iv.Lo <= iv.Hi
}

func point(v float64) Interval { return Interval{v, v} }

func (iv Interval) contains0() bool { return iv.Lo <= 0 && iv.Hi >= 0 }

func addIv(a, b Interval) Interval { return Interval{a.Lo + b.Lo, a.Hi + b.Hi} }

func scaleIv(w float64, a Interval) Interval {
	if w >= 0 {
		return Interval{w * a.Lo, w * a.Hi}
	}
	return Interval{w * a.Hi, w * a.Lo}
}

func mulIv(a, b Interval) Interval {
	p1, p2, p3, p4 := a.Lo*b.Lo, a.Lo*b.Hi, a.Hi*b.Lo, a.Hi*b.Hi
	return Interval{
		math.Min(math.Min(p1, p2), math.Min(p3, p4)),
		math.Max(math.Max(p1, p2), math.Max(p3, p4)),
	}
}

func divIv(a, b Interval) (Interval, bool) {
	if b.contains0() {
		return Interval{}, false
	}
	inv := Interval{1 / b.Hi, 1 / b.Lo}
	return mulIv(a, inv), true
}

func powIv(a Interval, n int) Interval {
	if n == 0 {
		return point(1)
	}
	out := a
	for i := 1; i < n; i++ {
		out = mulIv(out, a)
	}
	// Even powers of sign-crossing intervals tighten to [0, max]: the naive
	// product fold gives a sound but loose lower bound; fix it exactly.
	if n%2 == 0 && a.contains0() {
		out.Lo = 0
	}
	return out
}

func sqrtIv(a Interval) (Interval, bool) {
	if a.Hi < 0 {
		return Interval{}, false
	}
	lo := a.Lo
	if lo < 0 {
		lo = 0
	}
	return Interval{math.Sqrt(lo), math.Sqrt(a.Hi)}, true
}

// EvalInterval computes a guaranteed enclosure of e over the box
// |x'−x| ≤ ε. ok=false means the enclosure is unbounded (a division or
// radical straddled a pole, or a log/sqrt domain violation) — the interval
// analogue of the theorems' +Inf.
func EvalInterval(e Expr, vals, ebs []float64) (Interval, bool) {
	switch n := e.(type) {
	case Var:
		v, d := vals[n.Index], ebs[n.Index]
		if math.IsInf(d, 1) {
			return Interval{}, false
		}
		return Interval{v - d, v + d}, true
	case Const:
		return point(n.C), true
	case Sum:
		acc := point(0)
		for i, t := range n.Terms {
			iv, ok := EvalInterval(t, vals, ebs)
			if !ok {
				return Interval{}, false
			}
			acc = addIv(acc, scaleIv(n.Weights[i], iv))
		}
		return acc, true
	case Mul:
		a, ok := EvalInterval(n.A, vals, ebs)
		if !ok {
			return Interval{}, false
		}
		b, ok := EvalInterval(n.B, vals, ebs)
		if !ok {
			return Interval{}, false
		}
		return mulIv(a, b), true
	case Div:
		a, ok := EvalInterval(n.Num, vals, ebs)
		if !ok {
			return Interval{}, false
		}
		b, ok := EvalInterval(n.Den, vals, ebs)
		if !ok {
			return Interval{}, false
		}
		return divIv(a, b)
	case Pow:
		a, ok := EvalInterval(n.X, vals, ebs)
		if !ok || n.N < 0 {
			return Interval{}, false
		}
		return powIv(a, n.N), true
	case Poly:
		a, ok := EvalInterval(n.X, vals, ebs)
		if !ok {
			return Interval{}, false
		}
		acc := point(0)
		for i, c := range n.Coeffs {
			if c == 0 {
				continue
			}
			acc = addIv(acc, scaleIv(c, powIv(a, i)))
		}
		return acc, true
	case Sqrt:
		a, ok := EvalInterval(n.X, vals, ebs)
		if !ok {
			return Interval{}, false
		}
		return sqrtIv(a)
	case Radical:
		a, ok := EvalInterval(n.X, vals, ebs)
		if !ok {
			return Interval{}, false
		}
		return divIv(point(1), addIv(a, point(n.C)))
	case Abs:
		a, ok := EvalInterval(n.X, vals, ebs)
		if !ok {
			return Interval{}, false
		}
		if a.contains0() {
			return Interval{0, math.Max(-a.Lo, a.Hi)}, true
		}
		if a.Hi < 0 {
			return Interval{-a.Hi, -a.Lo}, true
		}
		return a, true
	case Exp:
		a, ok := EvalInterval(n.X, vals, ebs)
		if !ok {
			return Interval{}, false
		}
		return Interval{math.Exp(a.Lo), math.Exp(a.Hi)}, true
	case Log:
		a, ok := EvalInterval(n.X, vals, ebs)
		if !ok {
			return Interval{}, false
		}
		if a.Lo <= 0 {
			return Interval{}, false
		}
		return Interval{math.Log(a.Lo), math.Log(a.Hi)}, true
	default:
		return Interval{}, false
	}
}

// IntervalBound is the interval-arithmetic counterpart of Expr.Bound: the
// QoI value at the reconstruction plus a guaranteed error supremum derived
// from the enclosure width. A failed enclosure reports +Inf, mirroring the
// theorems' precondition behaviour.
func IntervalBound(e Expr, vals, ebs []float64) (value, bound float64) {
	value = e.Eval(vals)
	iv, ok := EvalInterval(e, vals, ebs)
	if !ok || !iv.valid() {
		return value, math.Inf(1)
	}
	if math.IsNaN(value) {
		return value, math.Inf(1)
	}
	bound = math.Max(iv.Hi-value, value-iv.Lo)
	if bound < 0 {
		// The center must lie inside the enclosure up to round-off.
		bound = 0
	}
	return value, bound
}

// BoundFunc is an estimator signature shared by the theorem-based
// Expr.Bound and IntervalBound, letting the retrieval framework swap
// estimators for ablations.
type BoundFunc func(e Expr, vals, ebs []float64) (value, bound float64)

// TheoremBound adapts Expr.Bound to BoundFunc (the paper's estimator).
func TheoremBound(e Expr, vals, ebs []float64) (float64, float64) {
	return e.Bound(vals, ebs)
}
