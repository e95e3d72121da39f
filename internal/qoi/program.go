package qoi

import (
	"encoding/binary"
	"fmt"
	"math"
)

// program.go is the compiled form of the theorem estimator. Compile lowers
// the target expressions of one request into a single flat, post-order node
// table, sharing every common subexpression; Program.Eval then runs one
// loop per node over a block of points held as columns, with no per-point
// interface dispatch, and holds each point's intermediates in registers.
// Every loop makes, per point, the products and sums of the scalar theorem
// helper TheoremBound calls, in the helper's order: Mul and Sqrt call
// theirs, which inline; Div and Radical repeat theirs, which do not; Sum
// folds sumTerm over its terms, with a loop of its own for one, two and
// three terms; and Pow unrolls powBound for the exponents the library uses
// and calls it at every point for the rest. So value and bound are
// bit-identical to TheoremBound at every point, and program_test.go holds
// each kernel to its helper bit for bit. A target's bounds leave a block
// through MaxBound, which folds them into a running maximum and leaves the
// column as it is, or through Bound, which rewrites its NaNs to +Inf.

// BlockSize is the most points one Program.Eval call evaluates. A block's
// scratch, a value and a bound column per node that is not a Var, then
// stays in L2: the six GE QoIs compile to 26 nodes, 21 of them with
// columns, (21 × 2) × 512 × 8 B = 168 KiB.
const BlockSize = 512

type opcode uint8

const (
	opVar opcode = iota
	opConst
	opSum
	opMul
	opDiv
	opPow
	opSqrt
	opRadical
	opAbs
	opExp
	opLog
)

// node is one program instruction. Its children precede it in the table.
type node struct {
	op   opcode
	n    int       // Var index, Pow exponent
	c    float64   // Const value, Radical offset
	w    []float64 // Sum weights
	args []int     // children: the Sum terms, Mul's A and B, Div's Num and Den, or the operand
}

// Program is a set of target expressions compiled for block evaluation.
// It is immutable; any number of goroutines may evaluate it, each with its
// own Scratch.
type Program struct {
	nodes []node
	roots []int // node of each target
	cols  int   // nodes that need scratch columns: all but the Vars
}

// Compile lowers targets into one Program. Structurally equal subtrees,
// down to the bits of every constant and weight, become one node. It
// refuses a nil node at any depth, a Sum whose weights and terms differ in
// number and a Pow exponent outside [0, 64], which only a node literal can
// hold: Parse builds none of them.
func Compile(targets []Expr) (*Program, error) {
	c := compiler{ids: map[string]int{}}
	roots := make([]int, len(targets))
	for k, e := range targets {
		var err error
		if roots[k], err = c.lower(e); err != nil {
			return nil, err
		}
	}
	p := &Program{nodes: c.nodes, roots: roots}
	for _, nd := range p.nodes {
		if nd.op != opVar {
			p.cols++
		}
	}
	return p, nil
}

type compiler struct {
	nodes []node
	ids   map[string]int // hash-cons key → node
	key   []byte
}

func (c *compiler) lower(e Expr) (int, error) {
	var nd node
	var kids []Expr
	switch x := own(e).(type) {
	case nil:
		return 0, fmt.Errorf("qoi: nil expression")
	case Var:
		nd = node{op: opVar, n: x.Index}
	case Const:
		nd = node{op: opConst, c: x.C}
	case Sum:
		if len(x.Weights) != len(x.Terms) {
			return 0, fmt.Errorf("qoi: sum of %d terms with %d weights", len(x.Terms), len(x.Weights))
		}
		nd, kids = node{op: opSum, w: x.Weights}, x.Terms
	case Mul:
		nd, kids = node{op: opMul}, []Expr{x.A, x.B}
	case Div:
		nd, kids = node{op: opDiv}, []Expr{x.Num, x.Den}
	case Pow:
		if x.N < 0 || x.N > maxExponent {
			return 0, fmt.Errorf("qoi: power x^%d: exponent outside [0, %d]", x.N, maxExponent)
		}
		nd, kids = node{op: opPow, n: x.N}, []Expr{x.X}
	case Sqrt:
		nd, kids = node{op: opSqrt}, []Expr{x.X}
	case Radical:
		nd, kids = node{op: opRadical, c: x.C}, []Expr{x.X}
	case Abs:
		nd, kids = node{op: opAbs}, []Expr{x.X}
	case Exp:
		nd, kids = node{op: opExp}, []Expr{x.X}
	case Log:
		nd, kids = node{op: opLog}, []Expr{x.X}
	}
	for _, k := range kids {
		id, err := c.lower(k)
		if err != nil {
			return 0, err
		}
		nd.args = append(nd.args, id)
	}
	return c.intern(nd), nil
}

// intern returns the id of the node equal to nd, adding nd if there is
// none.
func (c *compiler) intern(nd node) int {
	k := appendKey(c.key[:0], &nd, nd.args)
	c.key = k
	if id, ok := c.ids[string(k)]; ok {
		return id
	}
	c.nodes = append(c.nodes, nd)
	c.ids[string(k)] = len(c.nodes) - 1
	return len(c.nodes) - 1
}

// appendKey appends the hash-cons key of nd with children args. The key
// holds every field Eval reads, floats by their exact bits, so a −0 and a
// 0 weight or constant are different keys, and its child count, so keys
// concatenate without ambiguity.
func appendKey(k []byte, nd *node, args []int) []byte {
	k = append(k, byte(nd.op))
	k = binary.LittleEndian.AppendUint64(k, uint64(nd.n))
	k = binary.LittleEndian.AppendUint64(k, math.Float64bits(nd.c))
	k = binary.LittleEndian.AppendUint64(k, uint64(len(nd.w)))
	for _, w := range nd.w {
		k = binary.LittleEndian.AppendUint64(k, math.Float64bits(w))
	}
	k = binary.LittleEndian.AppendUint64(k, uint64(len(args)))
	for _, a := range args {
		k = binary.LittleEndian.AppendUint64(k, uint64(a))
	}
	return k
}

// Keys returns a canonical encoding of each target's structure, down to
// the bits of every constant and weight: the keys of the nodes
// it depends on, in post order, numbered as if it had been compiled alone.
// Two targets, of this program or any other, have equal keys exactly when
// they are the same tree however they were built, so equal keys mean
// equal values and bounds at every point. A retrieval session keys its
// estimate memo on them, since each request brings new QoI values.
func (p *Program) Keys() []string {
	local := make([]int, len(p.nodes)) // node → 1 + its number in the target
	var key []byte
	var args []int
	next := 0
	var visit func(i int)
	visit = func(i int) {
		if local[i] != 0 {
			return
		}
		for _, a := range p.nodes[i].args {
			visit(a)
		}
		args = args[:0]
		for _, a := range p.nodes[i].args {
			args = append(args, local[a]-1)
		}
		key = appendKey(key, &p.nodes[i], args)
		next++
		local[i] = next
	}
	keys := make([]string, len(p.roots))
	for k, r := range p.roots {
		clear(local)
		key, next = key[:0], 0
		visit(r)
		keys[k] = string(key)
	}
	return keys
}

// Scratch is one goroutine's working memory for Program.Eval: a value and
// a bound column per node, except the Vars, which Eval points at its
// inputs. A Scratch serves any sequence of programs and allocates only when
// a program is larger than any before it.
type Scratch struct {
	val, bnd [][]float64
	need     []bool
	buf      []float64
	m        int // points in the current block
}

func (s *Scratch) bind(p *Program) {
	n := len(p.nodes)
	if cap(s.need) < n {
		s.val, s.bnd, s.need = make([][]float64, n), make([][]float64, n), make([]bool, n)
	}
	if len(s.buf) < 2*p.cols*BlockSize {
		s.buf = make([]float64, 2*p.cols*BlockSize)
	}
	s.val, s.bnd, s.need = s.val[:n], s.bnd[:n], s.need[:n]
	off := 0
	for i := range p.nodes {
		if p.nodes[i].op != opVar {
			s.val[i], s.bnd[i] = s.buf[off:off+BlockSize], s.buf[off+BlockSize:off+2*BlockSize]
			off += 2 * BlockSize
		}
	}
}

// Eval evaluates, over the first m ≤ BlockSize points of a block, every
// node that a target k with active[k] depends on. x[v] and eb[v] hold
// variable v's reconstructed values and L∞ bounds at those points; only
// the variables the targets use are read, and their columns are read in
// place. Bound then returns each active target's bounds.
func (p *Program) Eval(s *Scratch, active []bool, x, eb [][]float64, m int) {
	s.bind(p)
	need := s.need
	clear(need)
	for k, r := range p.roots {
		need[r] = need[r] || active[k]
	}
	for i := len(p.nodes) - 1; i >= 0; i-- {
		if need[i] {
			for _, a := range p.nodes[i].args {
				need[a] = true
			}
		}
	}
	s.m = m
	for i := range p.nodes {
		if !need[i] {
			continue
		}
		nd := &p.nodes[i]
		if nd.op == opVar {
			s.val[i], s.bnd[i] = x[nd.n][:m], eb[nd.n][:m]
			continue
		}
		val, bnd := s.col(i)
		switch nd.op {
		case opConst:
			c := nd.c
			for j := range val {
				val[j], bnd[j] = c, 0
			}
		case opSum:
			s.sum(val, bnd, nd)
		case opMul:
			av, ad := s.col(nd.args[0])
			bv, bd := s.col(nd.args[1])
			for j := range val {
				val[j], bnd[j] = mulBound(av[j], ad[j], bv[j], bd[j])
			}
		case opDiv:
			av, ad := s.col(nd.args[0])
			bv, bd := s.col(nd.args[1])
			divColumn(val, bnd, av, ad, bv, bd)
		case opPow:
			xv, xd := s.col(nd.args[0])
			powColumn(val, bnd, xv, xd, nd.n)
		case opSqrt:
			xv, xd := s.col(nd.args[0])
			for j := range val {
				val[j], bnd[j] = sqrtBound(xv[j], xd[j])
			}
		case opRadical:
			xv, xd := s.col(nd.args[0])
			radicalColumn(val, bnd, nd.c, xv, xd)
		case opAbs:
			xv, xd := s.col(nd.args[0])
			for j := range val {
				val[j], bnd[j] = absBound(xv[j], xd[j])
			}
		case opExp:
			xv, xd := s.col(nd.args[0])
			for j := range val {
				val[j], bnd[j] = expBound(xv[j], xd[j])
			}
		case opLog:
			xv, xd := s.col(nd.args[0])
			for j := range val {
				val[j], bnd[j] = logBound(xv[j], xd[j])
			}
		}
	}
}

// sum is Theorems 4, 7 and 8 over a column, in one pass: per point, sumTerm
// over the terms in their order from (0, 0), the running pair held in
// registers. Sums of one, two and three terms, all the library builds, have
// their own loops, which read each term's columns through a local; more
// terms fold through the node's argument list.
func (s *Scratch) sum(val, bnd []float64, nd *node) {
	m, w := len(val), nd.w
	bnd = bnd[:m]
	switch len(nd.args) {
	case 1:
		w0 := w[0]
		av, ad := s.val[nd.args[0]][:m], s.bnd[nd.args[0]][:m]
		for j := range val {
			val[j], bnd[j] = sumTerm(0, 0, w0, av[j], ad[j])
		}
	case 2:
		w0, w1 := w[0], w[1]
		av, ad := s.val[nd.args[0]][:m], s.bnd[nd.args[0]][:m]
		bv, bd := s.val[nd.args[1]][:m], s.bnd[nd.args[1]][:m]
		for j := range val {
			v, d := sumTerm(0, 0, w0, av[j], ad[j])
			val[j], bnd[j] = sumTerm(v, d, w1, bv[j], bd[j])
		}
	case 3:
		w0, w1, w2 := w[0], w[1], w[2]
		av, ad := s.val[nd.args[0]][:m], s.bnd[nd.args[0]][:m]
		bv, bd := s.val[nd.args[1]][:m], s.bnd[nd.args[1]][:m]
		cv, cd := s.val[nd.args[2]][:m], s.bnd[nd.args[2]][:m]
		for j := range val {
			v, d := sumTerm(0, 0, w0, av[j], ad[j])
			v, d = sumTerm(v, d, w1, bv[j], bd[j])
			val[j], bnd[j] = sumTerm(v, d, w2, cv[j], cd[j])
		}
	default:
		for j := range val {
			v, d := 0.0, 0.0
			for t, a := range nd.args {
				v, d = sumTerm(v, d, w[t], s.val[a][j], s.bnd[a][j])
			}
			val[j], bnd[j] = v, d
		}
	}
}

// divColumn is divBound at every point, which is past the inlining budget:
// the same cases in the same order and the same operations.
func divColumn(val, bnd, nv, nd, dv, dd []float64) {
	m := len(nv)
	val, bnd, nd, dv, dd = val[:m], bnd[:m], nd[:m], dv[:m], dd[:m]
	for j, vn := range nv {
		dn, vd, e := nd[j], dv[j], dd[j]
		b := 0.0
		switch {
		case dn == 0 && e == 0:
		case !(e < math.Abs(vd)):
			b = math.Inf(1)
		default:
			den := math.Abs(vd) * min(math.Abs(vd-e), math.Abs(vd+e))
			b = (math.Abs(vn)*e + math.Abs(vd)*dn) / den
		}
		val[j], bnd[j] = vn/vd, b
	}
}

// radicalColumn is radicalBound(c, ·, ·) at every point, which is past the
// inlining budget: the same cases in the same order and the same
// operations.
func radicalColumn(val, bnd []float64, c float64, xv, xd []float64) {
	m := len(xv)
	val, bnd, xd = val[:m], bnd[:m], xd[:m]
	for j, v := range xv {
		d := xd[j]
		u := v + c
		b := 0.0
		switch {
		case d == 0:
		case !(d < math.Abs(u)):
			b = math.Inf(1)
		default:
			b = d / (min(math.Abs(u-d), math.Abs(u+d)) * math.Abs(u))
		}
		val[j], bnd[j] = 1/u, b
	}
}

// powColumn writes intPow(xv[j], n) to val[j] and powBound(xv[j], xd[j], n)
// to bnd[j] for every point, 0 ≤ n ≤ maxExponent. For the library's
// exponents, 2, 3 and 7, it is one loop that holds each point's |x|ᵏ, εⁱ
// and running sum in registers and makes powBound's products and sums in
// powBound's order: |x|ᵏ⁺¹ = |x|ᵏ·|x|, εⁱ⁺¹ = εⁱ·ε, the terms C(n,i)·|x|ⁿ⁻ⁱ·εⁱ
// added to 0 in increasing i, and 0 where ε = 0. C(n,n)·|x|⁰ is C(n,n)·1,
// which is C(n,n). The value is |x|ⁿ⁻¹·|x| with x's sign when n is odd:
// that is the chain of products intPow makes, and round to nearest is
// symmetric under negation, so it is intPow(x, n) bit for bit. Any other
// exponent calls intPow and powBound at every point, as TheoremBound does,
// with one |x|ᵏ table for the whole column.
func powColumn(val, bnd, xv, xd []float64, n int) {
	m := len(xv)
	val, bnd, xd = val[:m], bnd[:m], xd[:m]
	switch n {
	case 2:
		c := binomials[2]
		c1, c2 := c[0], c[1]
		for j, x := range xv {
			d := xd[j]
			a := math.Abs(x)
			b, di := 0.0, d
			b += c1 * a * di
			di *= d
			b += c2 * di
			if d == 0 {
				b = 0
			}
			val[j], bnd[j] = a*a, b
		}
	case 3:
		c := binomials[3]
		c1, c2, c3 := c[0], c[1], c[2]
		for j, x := range xv {
			d := xd[j]
			a := math.Abs(x)
			a2 := a * a
			b, di := 0.0, d
			b += c1 * a2 * di
			di *= d
			b += c2 * a * di
			di *= d
			b += c3 * di
			if d == 0 {
				b = 0
			}
			val[j], bnd[j] = math.Copysign(a2*a, x), b
		}
	case 7:
		c := binomials[7]
		c1, c2, c3, c4, c5, c6, c7 := c[0], c[1], c[2], c[3], c[4], c[5], c[6]
		for j, x := range xv {
			d := xd[j]
			a := math.Abs(x)
			a2 := a * a
			a3 := a2 * a
			a4 := a3 * a
			a5 := a4 * a
			a6 := a5 * a
			b, di := 0.0, d
			b += c1 * a6 * di
			di *= d
			b += c2 * a5 * di
			di *= d
			b += c3 * a4 * di
			di *= d
			b += c4 * a3 * di
			di *= d
			b += c5 * a2 * di
			di *= d
			b += c6 * a * di
			di *= d
			b += c7 * di
			if d == 0 {
				b = 0
			}
			val[j], bnd[j] = math.Copysign(a6*a, x), b
		}
	default:
		var pa [maxExponent]float64
		for j, x := range xv {
			val[j], bnd[j] = intPow(x, n), powBound(x, xd[j], n, &pa)
		}
	}
}

// col returns node i's value and bound columns over the current block.
func (s *Scratch) col(i int) (val, bnd []float64) { return s.val[i][:s.m], s.bnd[i][:s.m] }

// Bound returns target k's bounds from the last Eval that had it active,
// one per point of the block. The column is overwritten by the next Eval.
// A NaN reads as +Inf, as TheoremBound's does: the column helpers let
// NaN propagate to the root, where it means what TheoremBound's +Inf means.
func (p *Program) Bound(s *Scratch, k int) []float64 {
	_, bnd := s.col(p.roots[k])
	for j, b := range bnd {
		if math.IsNaN(b) {
			bnd[j] = math.Inf(1)
		}
	}
	return bnd
}

// MaxBound folds target k's bounds at points [lo, hi) of the block of the
// last Eval that had it active into a running maximum m, which is not NaN.
// It reads a NaN bound as +Inf, as Bound does, but leaves the column as it
// is. It returns the new maximum and the first point of [lo, hi) that
// holds it, or m and -1 when no bound there exceeds m: of equal maxima, the
// earliest wins.
func (p *Program) MaxBound(s *Scratch, k, lo, hi int, m float64) (float64, int) {
	_, bnd := s.col(p.roots[k])
	arg := -1
	for j, b := range bnd[lo:hi] {
		if !(b <= m) { // b > m, or b is NaN
			if b != b {
				if m == math.Inf(1) {
					continue
				}
				b = math.Inf(1)
			}
			m, arg = b, lo+j
		}
	}
	return m, arg
}
