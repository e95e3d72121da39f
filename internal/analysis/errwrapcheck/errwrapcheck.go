// Package errwrapcheck defines an analyzer enforcing the repository's
// sentinel-error discipline, established in PR 2 when ErrBadRequest
// became the typed wrapper for every argument-validation failure:
//
//  1. Sentinel errors are matched with errors.Is, never with == or !=.
//     Nearly every error in this codebase travels through at least one
//     fmt.Errorf("...: %w", err) wrap (client retries, core prefetch,
//     server dataset loading), so a direct comparison against a
//     sentinel silently stops matching the moment a wrap is added
//     upstream. Comparisons against nil are of course fine.
//
//  2. When a sentinel reaches fmt.Errorf it must be wrapped with %w,
//     not stringified with %v/%s. progqoi promises callers that
//     errors.Is(err, ErrBadRequest) classifies every validation
//     failure; a %v at any layer breaks that chain while keeping the
//     message text identical — invisible in review, caught here.
//
// A sentinel is a package-level variable of type error whose name
// starts with "Err" (ErrBadRequest, ErrShortFragment, ErrCorrupt,
// storage.ErrNotFound, ...) or io.EOF.
package errwrapcheck

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"

	"progqoi/internal/analysis"
	"progqoi/internal/analysis/analysisutil"
)

const doc = `check sentinel-error discipline: errors.Is, and %w at wrap sites

Reports == / != comparisons against sentinel error variables (use
errors.Is — sentinels here are routinely wrapped) and fmt.Errorf calls
that format a sentinel with a verb other than %w (which would break
errors.Is classification for every caller downstream).`

const name = "errwrapcheck"

// Analyzer is the errwrapcheck analyzer.
var Analyzer = &analysis.Analyzer{
	Name: name,
	Doc:  doc,
	Run:  run,
}

// isSentinel reports whether e resolves to a package-level error
// variable named Err* (or io.EOF).
func isSentinel(info *types.Info, e ast.Expr) (types.Object, bool) {
	var id *ast.Ident
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		id = x
	case *ast.SelectorExpr:
		id = x.Sel
	default:
		return nil, false
	}
	obj := info.Uses[id]
	v, ok := obj.(*types.Var)
	if !ok || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
		return nil, false
	}
	if !types.Identical(v.Type(), types.Universe.Lookup("error").Type()) {
		return nil, false
	}
	if strings.HasPrefix(v.Name(), "Err") {
		return v, true
	}
	if v.Pkg().Path() == "io" && (v.Name() == "EOF" || v.Name() == "ErrUnexpectedEOF") {
		return v, true
	}
	return nil, false
}

func run(pass *analysis.Pass) error {
	analysisutil.WalkStack(pass.Files, func(n ast.Node, _ []ast.Node) {
		switch x := n.(type) {
		case *ast.BinaryExpr:
			checkComparison(pass, x)
		case *ast.CallExpr:
			checkErrorf(pass, x)
		}
	})
	return nil
}

// checkComparison flags == / != against a sentinel error variable.
func checkComparison(pass *analysis.Pass, b *ast.BinaryExpr) {
	if b.Op != token.EQL && b.Op != token.NEQ {
		return
	}
	for _, side := range []ast.Expr{b.X, b.Y} {
		obj, ok := isSentinel(pass.TypesInfo, side)
		if !ok {
			continue
		}
		// Sentinel-to-sentinel or sentinel-to-nil identity tests (e.g. in
		// the sentinel's own package tests) are not classification.
		other := b.Y
		if side == b.Y {
			other = b.X
		}
		if pass.TypesInfo.Types[other].IsNil() {
			return
		}
		if _, otherIsSentinel := isSentinel(pass.TypesInfo, other); otherIsSentinel {
			return
		}
		if f := analysisutil.FileFor(pass, b.Pos()); f != nil &&
			analysisutil.Allowed(pass, f, b.Pos(), name) {
			return
		}
		pass.Reportf(b.OpPos,
			"comparing against sentinel %s with %s breaks once the error is wrapped anywhere upstream; use errors.Is (PR 2 error contract)",
			obj.Name(), b.Op)
		return
	}
}

// checkErrorf flags fmt.Errorf calls that format a sentinel error with a
// verb other than %w.
func checkErrorf(pass *analysis.Pass, call *ast.CallExpr) {
	if !analysisutil.IsPkgFunc(analysisutil.Callee(pass.TypesInfo, call), "fmt", "Errorf") {
		return
	}
	if len(call.Args) < 2 {
		return
	}
	tv, ok := pass.TypesInfo.Types[call.Args[0]]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return
	}
	verbs := formatVerbs(constant.StringVal(tv.Value))
	for i, arg := range call.Args[1:] {
		obj, ok := isSentinel(pass.TypesInfo, arg)
		if !ok {
			continue
		}
		if i >= len(verbs) || verbs[i] == 'w' {
			continue
		}
		if f := analysisutil.FileFor(pass, call.Pos()); f != nil &&
			analysisutil.Allowed(pass, f, call.Pos(), name) {
			continue
		}
		pass.Reportf(arg.Pos(),
			"sentinel %s formatted with %%%c; wrap with %%w so errors.Is keeps classifying it downstream",
			obj.Name(), verbs[i])
	}
}

// formatVerbs returns the verb letter consumed by each successive
// argument of a fmt format string. Indexed verbs (%[n]d) and * widths
// are rare in this codebase; the scanner handles flags, width and
// precision digits and treats anything it cannot follow conservatively
// by stopping.
func formatVerbs(format string) []byte {
	var verbs []byte
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		i++
		// Skip flags, width, precision.
		for i < len(format) && strings.ContainsRune("+-# 0123456789.", rune(format[i])) {
			i++
		}
		if i >= len(format) {
			break
		}
		c := format[i]
		if c == '%' {
			continue
		}
		if c == '*' || c == '[' {
			// Star width / explicit index: bail out rather than misattribute.
			return verbs
		}
		verbs = append(verbs, c)
	}
	return verbs
}
