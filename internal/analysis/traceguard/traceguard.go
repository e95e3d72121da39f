// Package traceguard defines an analyzer defending the PR 6 zero-alloc
// tracing contract statically: when tracing is disabled, the retrieval
// hot path must not allocate on behalf of the recorder.
//
// Every method on *obs.Trace is nil-safe, so calling Begin/BeginIter on
// a nil trace is free — as long as the arguments are free too. A span
// name built by concatenation ("frag "+vr+"/"+strconv.Itoa(fi)) or any
// function call allocates before the nil receiver is ever consulted,
// which is exactly the regression TestTraceDisabledZeroAlloc catches
// at runtime. This analyzer catches it
// at vet time: a Begin/BeginIter call whose arguments require
// computation must sit inside an if statement that proves the trace
// non-nil, the way every existing call site does:
//
//	var mf obs.SpanMark
//	if tr := obs.TraceFrom(ctx); tr != nil {
//		mf = tr.Begin(obs.CatFetch, "frag "+vr+"/"+strconv.Itoa(fi))
//	}
//	...
//	mf.EndBytes(n)
//
// Calls whose arguments are constants or plain loads (identifiers,
// field selections, indexing) are allowed unguarded — they cost nothing
// on a nil trace, and the unguarded constant-name sites in core.go rely
// on that.
package traceguard

import (
	"go/ast"
	"go/token"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"

	"progqoi/internal/analysis/analysisutil"
)

const doc = `check that allocating obs span calls are nil-guarded

A (*obs.Trace).Begin/BeginIter call whose arguments involve computation
(string concatenation, function calls, conversions) must be inside an
if that proves the trace non-nil, preserving the PR 6 guarantee that a
disabled trace costs zero allocations on the retrieval hot path.`

const name = "traceguard"

// Analyzer is the traceguard analyzer.
var Analyzer = &analysis.Analyzer{
	Name:     name,
	Doc:      doc,
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

func run(pass *analysis.Pass) (any, error) {
	if pass.Pkg.Name() == "obs" {
		// The recorder's own methods implement the nil-safety the rest of
		// the tree relies on.
		return nil, nil
	}
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	ins.WithStack([]ast.Node{(*ast.CallExpr)(nil)}, func(n ast.Node, push bool, stack []ast.Node) bool {
		if !push {
			return false
		}
		call := n.(*ast.CallExpr)
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Begin" && sel.Sel.Name != "BeginIter") {
			return true
		}
		recv := sel.X
		if !analysisutil.IsNamedType(pass.TypesInfo.TypeOf(recv), "obs", "Trace") {
			return true
		}
		free := true
		for _, arg := range call.Args {
			if !freeExpr(pass.TypesInfo, arg) {
				free = false
				break
			}
		}
		if free {
			return true
		}
		if guarded(pass.TypesInfo, recv, call, stack) {
			return true
		}
		if f := analysisutil.FileFor(pass, call.Pos()); f != nil &&
			analysisutil.Allowed(pass, f, call.Pos(), name) {
			return true
		}
		pass.Reportf(call.Pos(),
			"%s.%s with a computed argument must be guarded by an %q check: the argument allocates even when the trace is nil, breaking the PR 6 zero-alloc contract",
			analysisutil.ExprString(recv), sel.Sel.Name, analysisutil.ExprString(recv)+" != nil")
		return true
	})
	return nil, nil
}

// freeExpr reports whether evaluating e cannot allocate: constants,
// identifiers, field selections, indexing and pointer loads qualify;
// calls, conversions, concatenations and literals do not.
func freeExpr(info *types.Info, e ast.Expr) bool {
	if tv, ok := info.Types[e]; ok && tv.Value != nil {
		return true // constant-folded, incl. obs.Cat* and literals
	}
	switch x := e.(type) {
	case *ast.Ident:
		return true
	case *ast.BasicLit:
		return true
	case *ast.ParenExpr:
		return freeExpr(info, x.X)
	case *ast.SelectorExpr:
		return freeExpr(info, x.X)
	case *ast.IndexExpr:
		return freeExpr(info, x.X) && freeExpr(info, x.Index)
	case *ast.StarExpr:
		return freeExpr(info, x.X)
	case *ast.UnaryExpr:
		return x.Op != token.AND && freeExpr(info, x.X)
	}
	return false
}

// guarded reports whether the call sits inside the body of an if whose
// condition proves recv non-nil — either "recv != nil" textually, or
// "x := <init>; x != nil" where recv is that x.
func guarded(info *types.Info, recv ast.Expr, call *ast.CallExpr, stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		ifs, ok := stack[i].(*ast.IfStmt)
		if !ok {
			continue
		}
		// Only the then-branch is proven; a call in the else of a != nil
		// check is exactly the nil case.
		if !within(ifs.Body, call) {
			continue
		}
		if condProvesNonNil(info, ifs.Cond, recv) {
			return true
		}
	}
	return false
}

func within(body *ast.BlockStmt, n ast.Node) bool {
	return body != nil && body.Pos() <= n.Pos() && n.End() <= body.End()
}

// condProvesNonNil matches "recv != nil" anywhere in a conjunction.
func condProvesNonNil(info *types.Info, cond ast.Expr, recv ast.Expr) bool {
	switch c := ast.Unparen(cond).(type) {
	case *ast.BinaryExpr:
		if c.Op == token.LAND {
			return condProvesNonNil(info, c.X, recv) || condProvesNonNil(info, c.Y, recv)
		}
		if c.Op != token.NEQ {
			return false
		}
		x, y := ast.Unparen(c.X), ast.Unparen(c.Y)
		if info.Types[y].IsNil() {
			return sameExpr(info, x, recv)
		}
		if info.Types[x].IsNil() {
			return sameExpr(info, y, recv)
		}
	}
	return false
}

// sameExpr reports whether a and b denote the same value: identical
// identifiers (same object) or structurally equal selector/index chains.
func sameExpr(info *types.Info, a, b ast.Expr) bool {
	a, b = ast.Unparen(a), ast.Unparen(b)
	if ai, ok := a.(*ast.Ident); ok {
		if bi, ok := b.(*ast.Ident); ok {
			ao, bo := useOrDef(info, ai), useOrDef(info, bi)
			return ao != nil && ao == bo
		}
	}
	return analysisutil.ExprString(a) == analysisutil.ExprString(b)
}

func useOrDef(info *types.Info, id *ast.Ident) types.Object {
	if o := info.Uses[id]; o != nil {
		return o
	}
	return info.Defs[id]
}
