package core

import (
	"math"
	"slices"
	"testing"

	"progqoi/internal/qoi"
)

// TestPlannerSeed holds Algorithm 3 to its rule on synthetic ranges, with
// no data: each variable a target reads gets the smallest relative
// tolerance among those targets times its range, and an absolute target
// counts as a relative tolerance of 0.1. The seeds come from newRequest,
// the one place a request's targets are read.
func TestPlannerSeed(t *testing.T) {
	inf := math.Inf(1)
	// rel reads the variables vs under a relative tolerance r; abs reads
	// them under an absolute one.
	rel := func(r float64, vs ...int) Target {
		return Target{QoI: sumOf(vs), Tolerance: r, Relative: true, Range: 1}
	}
	abs := func(vs ...int) Target { return Target{QoI: sumOf(vs), Tolerance: 1} }
	for _, c := range []struct {
		name    string
		ranges  []float64
		eps     []float64 // before the seed; nil means a fresh planner
		targets []Target
		want    []float64
	}{
		{"smallest relative tolerance per variable wins", []float64{10, 20, 30}, nil,
			[]Target{rel(1e-2, 0, 1), rel(1e-3, 1, 2)}, []float64{0.1, 0.02, 0.03}},
		{"constant field seeds with the relative value", []float64{0, 4}, nil,
			[]Target{rel(1e-3, 0, 1)}, []float64{1e-3, 4e-3}},
		{"unused variables stay unbounded", []float64{10, 20, 30, 40}, nil,
			[]Target{rel(1e-2, 1), rel(1e-2, 3)}, []float64{inf, 0.2, inf, 0.4}},
		{"an absolute target seeds as relative tolerance 0.1", []float64{10, 20, 30}, nil,
			[]Target{abs(0), abs(1), rel(0.5, 2), abs(2)}, []float64{1, 2, 3}},
		{"relative tolerance above 1 is 1", []float64{10}, nil,
			[]Target{rel(5, 0)}, []float64{10}},
		{"ε only goes down", []float64{10, 20}, []float64{0.5, 5},
			[]Target{rel(1e-1, 0, 1)}, []float64{0.5, 2}},
	} {
		rt := &Retriever{vars: make([]*Variable, len(c.ranges)), ne: 1}
		q, err := rt.newRequest(Request{Targets: c.targets})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		p := newPlanner(c.ranges, 1.5)
		if c.eps != nil {
			copy(p.eps, c.eps)
		}
		p.seed(q.reads, q.seed)
		if !slices.Equal(p.eps, c.want) {
			t.Errorf("%s: ε = %v, want %v", c.name, p.eps, c.want)
		}
	}
}

// sumOf is a QoI that reads the variables vs.
func sumOf(vs []int) qoi.QoI {
	terms := make([]qoi.Expr, len(vs))
	for i, v := range vs {
		terms[i] = qoi.Var{Index: v}
	}
	return qoi.QoI{Name: "sum", Expr: qoi.Add(terms...)}
}

// TestPlannerTighten holds Algorithm 4 to its rule on synthetic monotone
// bounds, with no data: the bound at the worst point is a function of the
// candidate bounds alone.
func TestPlannerTighten(t *testing.T) {
	inf := math.Inf(1)
	sum := func(cand []float64) float64 { return cand[0] + cand[1] }
	never := func([]float64) float64 { return inf }
	for _, c := range []struct {
		name        string
		ranges      []float64
		eps         []float64
		vs          []int
		from        []float64
		c, tol      float64
		bound       func([]float64) float64
		want        []float64
		wantChanged bool
		wantCalls   int
		wantFirst   []float64 // the candidate bound first sees, when set
	}{
		{name: "steps by c until the bound meets tol", ranges: []float64{8, 8, 8},
			eps: []float64{inf, inf, 7}, vs: []int{0, 1}, from: []float64{1, 1, 5}, c: 2, tol: 0.5, bound: sum,
			want: []float64{0.25, 0.25, 7}, wantChanged: true, wantCalls: 3},
		{name: "stops after 20 steps", ranges: []float64{8, 8},
			eps: []float64{inf, inf}, vs: []int{0, 1}, from: []float64{1, 2}, c: 2, tol: 1, bound: never,
			want: []float64{1.0 / (1 << 20), 2.0 / (1 << 20)}, wantChanged: true, wantCalls: maxTighten},
		{name: "an unbounded start is the range, or 1 for a constant field", ranges: []float64{8, 0},
			eps: []float64{inf, inf}, vs: []int{0, 1}, from: []float64{inf, inf}, c: 2, tol: 5, bound: sum,
			want: []float64{4, 0.5}, wantChanged: true, wantCalls: 2, wantFirst: []float64{8, 1}},
		{name: "below 1e-300 is bit-exact", ranges: []float64{1},
			eps: []float64{inf}, vs: []int{0}, from: []float64{1e-299}, c: 1.5, tol: 0, bound: never,
			want: []float64{0}, wantChanged: true, wantCalls: maxTighten},
		{name: "ε only goes down", ranges: []float64{8, 8},
			eps: []float64{0.1, 3}, vs: []int{0, 1}, from: []float64{1, 1}, c: 2, tol: 2, bound: sum,
			want: []float64{0.1, 1}, wantChanged: true, wantCalls: 1},
		{name: "a met bound changes nothing", ranges: []float64{8, 8},
			eps: []float64{0.1, 0.1}, vs: []int{0, 1}, from: []float64{1, 1}, c: 2, tol: 2, bound: sum,
			want: []float64{0.1, 0.1}, wantChanged: false, wantCalls: 1},
	} {
		p := newPlanner(c.ranges, c.c)
		copy(p.eps, c.eps)
		from := slices.Clone(c.from)
		calls := 0
		changed := p.tighten(c.vs, from, c.tol, func(cand []float64) float64 {
			if calls == 0 && c.wantFirst != nil {
				for i, v := range c.vs {
					if cand[v] != c.wantFirst[i] {
						t.Errorf("%s: first candidate %v, want %v", c.name, cand, c.wantFirst)
					}
				}
			}
			calls++
			return c.bound(cand)
		})
		if !slices.Equal(p.eps, c.want) || changed != c.wantChanged || calls != c.wantCalls {
			t.Errorf("%s: ε = %v, changed %v after %d bounds; want %v, %v after %d",
				c.name, p.eps, changed, calls, c.want, c.wantChanged, c.wantCalls)
		}
		if !slices.Equal(from, c.from) {
			t.Errorf("%s: tighten wrote its starting bounds %v", c.name, from)
		}
	}
}
