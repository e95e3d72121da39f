package qoi

import (
	"math"
	"testing"
)

// fuzzFields names eight variables, enough for every dataset's QoIs in
// the library's own rendering (Var i prints as x<i>).
var fuzzFields = []string{"x0", "x1", "x2", "x3", "x4", "x5", "x6", "x7"}

// FuzzParse feeds Parse arbitrary formula text, as the public API and
// the progqoi CLI do. Whatever it accepts must stay inside the field list
// (by Vars), evaluate without panicking, and Compile without error, and a
// one-point Program.Eval must give the value and bound TheoremBound gives,
// bit for bit. A bound is never negative or NaN: +Inf is the one way to
// say "no guarantee here". The seeds are the GE, S3D and NYX QoIs the
// library ships; the committed corpus adds the x0^1e300 exponent
// overflow, which once certified a zero error, x3^64*x6, whose ∞·0 once
// bounded as NaN, a half-integer power and the CLI's example formulas.
func FuzzParse(f *testing.F) {
	for _, q := range append(GEQoIs(), S3DProducts()...) {
		f.Add(q.Expr.String())
	}
	f.Add(TotalVelocity(0, 1, 2).Expr.String()) // NYX
	// GE-like velocities, pressure and density, then an exact value and
	// one near overflow, so ∞·0 and ∞−∞ are a few tokens away.
	vals := []float64{1.5, -0.5, 2, 101325, 1.2, 0.3, 0.7, 1e300}
	ebs := []float64{1e-3, 1e-3, 1e-3, 10, 1e-4, 1e-2, 0, 1e290}
	// The same point as one-point columns, the block Algorithm 4 evaluates.
	x, eb := make([][]float64, len(vals)), make([][]float64, len(vals))
	for v := range vals {
		x[v], eb[v] = vals[v:v+1], ebs[v:v+1]
	}
	var s Scratch
	f.Fuzz(func(t *testing.T, src string) {
		e, err := Parse(src, fuzzFields)
		if err != nil {
			return
		}
		for _, v := range Vars(e) {
			if v < 0 || v >= len(fuzzFields) {
				t.Fatalf("%q: variable %d with %d fields", src, v, len(fuzzFields))
			}
		}
		_ = e.Eval(vals)
		wantV, wantB := TheoremBound(e, vals, ebs)
		if wantB < 0 || math.IsNaN(wantB) {
			t.Fatalf("%q parsed as %v: bound %g", src, e, wantB)
		}
		p, err := Compile([]Expr{e})
		if err != nil {
			t.Fatalf("%q parsed as %v but does not compile: %v", src, e, err)
		}
		p.Eval(&s, []bool{true}, x, eb, 1)
		b := p.Bound(&s, 0)[0]
		v, _ := s.col(p.roots[0])
		if !sameBits(v[0], wantV) || !sameBits(b, wantB) {
			t.Fatalf("%q parsed as %v: program (%v, %v), TheoremBound (%v, %v)", src, e, v[0], b, wantV, wantB)
		}
	})
}
