// Package ctxflow defines an analyzer enforcing the PR 2 context
// contract: cancellation flows end to end, so code below main must not
// mint fresh root contexts or issue context-free HTTP requests.
//
// Two rules:
//
//  1. context.Background() and context.TODO() are banned outside
//     package main and _test.go files. Library code receives its
//     context from the caller; a fresh root silently detaches I/O from
//     the session's deadline and cancel — exactly the bug class PR 2
//     eliminated by threading ctx through Retrieve, Prefetch, Advance
//     and the whole client. Two shapes are exempt: defaulting a nil
//     context ("if ctx == nil { ctx = context.Background() }"), which
//     preserves a caller-supplied context whenever one exists, and
//     sites carrying a //progqoivet:allow ctxflow -- <reason>
//     directive — the one in the tree is the topology refresh loop in
//     Client.refresher (internal/client/view.go: it outlives any one
//     session, and Close stops it).
//
//  2. HTTP requests must carry a context: http.NewRequest and the
//     shorthand helpers http.Get/Head/Post/PostForm (package-level or
//     on *http.Client) are banned everywhere in favor of
//     http.NewRequestWithContext. A request built without a context
//     cannot be cancelled, which breaks the client invariant that a
//     dead session stops consuming cluster capacity immediately.
package ctxflow

import (
	"go/ast"
	"go/types"

	"progqoi/internal/analysis"
	"progqoi/internal/analysis/analysisutil"
)

const doc = `check that contexts flow end to end

Bans context.Background()/context.TODO() outside package main and tests
(except nil-context defaulting and explicitly allowed detach points),
and bans the context-free HTTP request constructors in favor of
http.NewRequestWithContext.`

const name = "ctxflow"

// Analyzer is the ctxflow analyzer.
var Analyzer = &analysis.Analyzer{
	Name: name,
	Doc:  doc,
	Run:  run,
}

// bareHTTPFuncs are package-level net/http helpers that build requests
// with no context.
var bareHTTPFuncs = map[string]bool{
	"NewRequest": true, "Get": true, "Head": true, "Post": true, "PostForm": true,
}

// bareClientMethods are *http.Client methods that build requests with no
// context.
var bareClientMethods = map[string]bool{
	"Get": true, "Head": true, "Post": true, "PostForm": true,
}

func run(pass *analysis.Pass) error {
	analysisutil.WalkStack(pass.Files, func(n ast.Node, stack []ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		obj := analysisutil.Callee(pass.TypesInfo, call)
		fn, ok := obj.(*types.Func)
		if !ok || fn.Pkg() == nil {
			return
		}
		switch {
		case fn.Pkg().Path() == "context" && (fn.Name() == "Background" || fn.Name() == "TODO"):
			checkRootContext(pass, call, fn.Name(), stack)
		case fn.Pkg().Path() == "net/http":
			if analysisutil.InTestFile(pass, call.Pos()) {
				// Tests may fire quick context-free requests at httptest
				// servers; the invariant protects production sessions.
				return
			}
			sig, _ := fn.Type().(*types.Signature)
			switch {
			case sig != nil && sig.Recv() == nil && bareHTTPFuncs[fn.Name()]:
				report(pass, call, "http."+fn.Name()+" builds a request without a context; use http.NewRequestWithContext so the session's cancel and deadline reach the wire")
			case sig != nil && sig.Recv() != nil && bareClientMethods[fn.Name()] &&
				analysisutil.IsNamedType(sig.Recv().Type(), "http", "Client"):
				report(pass, call, "(*http.Client)."+fn.Name()+" builds a request without a context; use http.NewRequestWithContext + Do so the session's cancel and deadline reach the wire")
			}
		}
	})
	return nil
}

// checkRootContext reports a context.Background/TODO call unless it is in
// main, a test, a nil-context default, or an allowed detach point.
func checkRootContext(pass *analysis.Pass, call *ast.CallExpr, name string, stack []ast.Node) {
	if pass.Pkg.Name() == "main" || analysisutil.InTestFile(pass, call.Pos()) {
		return
	}
	if isNilDefault(pass, call, stack) {
		return
	}
	report(pass, call,
		"context."+name+"() detaches this code from the caller's cancellation and deadline; take and forward a context.Context instead (PR 2 contract), or mark a documented detach with //progqoivet:allow ctxflow -- <reason>")
}

// isNilDefault matches the one blessed Background() shape:
//
//	if ctx == nil { ctx = context.Background() }
//
// i.e. the call is the sole RHS of an assignment to an identifier inside
// an if whose condition is that same identifier == nil.
func isNilDefault(pass *analysis.Pass, call *ast.CallExpr, stack []ast.Node) bool {
	if len(stack) < 3 {
		return false
	}
	asg, ok := stack[len(stack)-2].(*ast.AssignStmt)
	if !ok || len(asg.Lhs) != 1 || len(asg.Rhs) != 1 || ast.Unparen(asg.Rhs[0]) != call {
		return false
	}
	lhs, ok := ast.Unparen(asg.Lhs[0]).(*ast.Ident)
	if !ok {
		return false
	}
	// Walk outward over the block to the enclosing if.
	for i := len(stack) - 3; i >= 0; i-- {
		ifs, ok := stack[i].(*ast.IfStmt)
		if !ok {
			continue
		}
		cond, ok := ast.Unparen(ifs.Cond).(*ast.BinaryExpr)
		if !ok || cond.Op.String() != "==" {
			return false
		}
		x, y := ast.Unparen(cond.X), ast.Unparen(cond.Y)
		for _, side := range []ast.Expr{x, y} {
			if id, ok := side.(*ast.Ident); ok &&
				pass.TypesInfo.Uses[id] != nil &&
				pass.TypesInfo.Uses[id] == pass.TypesInfo.Uses[lhs] {
				return true
			}
		}
		return false
	}
	return false
}

func report(pass *analysis.Pass, call *ast.CallExpr, msg string) {
	if f := analysisutil.FileFor(pass, call.Pos()); f != nil &&
		analysisutil.Allowed(pass, f, call.Pos(), name) {
		return
	}
	pass.Reportf(call.Pos(), "%s", msg)
}
