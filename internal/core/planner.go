package core

import (
	"math"
	"slices"
)

// planner is the error-bound assigner of Fig. 1. It owns every variable's
// requested bound ε and has two rules for moving it: Algorithm 3's seed
// and Algorithm 4's tightening. ε only ever goes down, so a session's later
// requests never give up the fidelity an earlier one asked for.
type planner struct {
	eps    []float64 // requested bound per variable, +Inf until a request reads it
	ranges []float64 // value range per variable: Algorithm 3's scale
	c      float64   // Algorithm 4's tightening factor
}

// maxTighten caps Algorithm 4's steps per call. The bound it tightens
// against is the estimate at the current reconstruction, and a point whose
// reconstructed value sits at a theorem singularity (a sqrt radicand
// reconstructed to exactly zero, say) reports +Inf for any candidate ε,
// which uncapped would crash the bound to bit-exact in one round. Capping
// lets the next round re-estimate against refreshed values. 20 steps of
// c = 1.5 are a ~3300× reduction per round, so legitimate deep tightening
// still converges in a handful of rounds.
const maxTighten = 20

// newPlanner returns a planner for variables with the given value ranges
// and tightening factor c, which is the paper's 1.5 unless above 1.
func newPlanner(ranges []float64, c float64) *planner {
	if c <= 1 {
		c = 1.5
	}
	eps := make([]float64, len(ranges))
	for v := range eps {
		eps[v] = math.Inf(1)
	}
	return &planner{eps: eps, ranges: ranges, c: c}
}

// seed is Algorithm 3. Every variable a target reads gets the smallest
// relative tolerance of the targets that read it (rel[k], never above 1)
// times its value range, or the relative tolerance itself for a constant
// field. reads[k] lists the variables target k reads.
func (p *planner) seed(reads [][]int, rel []float64) {
	vrel := make([]float64, len(p.eps)) // 0: no target reads the variable
	for k, vs := range reads {
		for _, v := range vs {
			if vrel[v] == 0 {
				vrel[v] = 1
			}
			if rel[k] < vrel[v] {
				vrel[v] = rel[k]
			}
		}
	}
	for v, r := range vrel {
		if r == 0 {
			continue
		}
		eb := r * p.ranges[v]
		if p.ranges[v] == 0 {
			eb = r
		}
		if eb < p.eps[v] {
			p.eps[v] = eb
		}
	}
}

// tighten is Algorithm 4 for one target that reads the variables vs.
// Starting from the bounds from (an unbounded variable starts at its
// range, or at 1 for a constant field), it divides the bound of every
// variable in vs by c until bound, the target's error at its worst point
// under the candidate bounds, is at most tol, or maxTighten steps have
// passed. A candidate below 1e-300 becomes 0: bit-exact data. It then
// lowers each ε to its candidate where that is smaller and reports whether
// any ε changed.
func (p *planner) tighten(vs []int, from []float64, tol float64, bound func(cand []float64) float64) bool {
	cand := slices.Clone(from)
	for _, v := range vs {
		if math.IsInf(cand[v], 1) {
			cand[v] = p.ranges[v]
			if cand[v] == 0 {
				cand[v] = 1
			}
		}
	}
	for step := 0; step < maxTighten && !(bound(cand) <= tol); step++ {
		for _, v := range vs {
			cand[v] /= p.c
			if cand[v] < 1e-300 {
				cand[v] = 0
			}
		}
	}
	changed := false
	for _, v := range vs {
		if cand[v] < p.eps[v] {
			p.eps[v] = cand[v]
			changed = true
		}
	}
	return changed
}
