// Package analysisutil holds the small shared surface of the progqoivet
// analyzer suite: the suppression directive, package-scope matching, and
// AST helpers the individual analyzers share.
//
// # Suppression directive
//
// A diagnostic may be silenced at a specific site with
//
//	//progqoivet:allow <analyzer> -- <reason>
//
// placed on the flagged line or the line immediately above it. The
// analyzer name must match and the reason must be non-empty — a
// directive without a reason does not suppress anything, so every
// exemption in the tree documents why it is safe. The directive is the
// machine-readable form of "documented exception". Its users are the
// ctxflow detach in Client.refresher (internal/client/view.go) and the
// tokencmp exemption in server.TokenEqual (internal/server/tenant.go).
package analysisutil

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"progqoi/internal/analysis"
)

// DirectivePrefix introduces a suppression comment.
const DirectivePrefix = "progqoivet:allow"

// Allowed reports whether a diagnostic from the named analyzer at pos is
// suppressed by a well-formed //progqoivet:allow directive in file — on
// the same line or the line immediately above.
func Allowed(pass *analysis.Pass, file *ast.File, pos token.Pos, name string) bool {
	line := pass.Fset.Position(pos).Line
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			text = strings.TrimSpace(text)
			rest, ok := strings.CutPrefix(text, DirectivePrefix)
			if !ok {
				continue
			}
			cl := pass.Fset.Position(c.Pos()).Line
			if cl != line && cl != line-1 {
				continue
			}
			// "<analyzer> -- <reason>": both parts are mandatory.
			analyzer, reason, ok := strings.Cut(strings.TrimSpace(rest), "--")
			if !ok || strings.TrimSpace(reason) == "" {
				continue
			}
			if strings.TrimSpace(analyzer) == name {
				return true
			}
		}
	}
	return false
}

// FileFor returns the *ast.File of pass containing pos, or nil.
func FileFor(pass *analysis.Pass, pos token.Pos) *ast.File {
	for _, f := range pass.Files {
		if f.FileStart <= pos && pos < f.FileEnd {
			return f
		}
	}
	return nil
}

// InTestFile reports whether pos sits in a _test.go file.
func InTestFile(pass *analysis.Pass, pos token.Pos) bool {
	return strings.HasSuffix(pass.Fset.Position(pos).Filename, "_test.go")
}

// PkgMatch reports whether the package path matches any element of the
// comma-separated list. An empty list matches every package — fixture
// packages run the analyzers unrestricted.
func PkgMatch(list, path string) bool {
	if strings.TrimSpace(list) == "" {
		return true
	}
	for _, p := range strings.Split(list, ",") {
		if strings.TrimSpace(p) == path {
			return true
		}
	}
	return false
}

// WalkStack is the analyzers' one AST walk: it visits every node of
// files in preorder, with the path to it, from the *ast.File down to n
// itself (stack[len(stack)-2] is n's parent). fn must not retain stack.
func WalkStack(files []*ast.File, fn func(n ast.Node, stack []ast.Node)) {
	var stack []ast.Node
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return false
			}
			stack = append(stack, n)
			fn(n, stack)
			return true
		})
	}
}

// FuncFor returns the innermost function enclosing the node at the top
// of stack (a WalkStack stack, outermost first): the body of a FuncDecl
// or FuncLit, or nil at package scope.
func FuncFor(stack []ast.Node) ast.Node {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			return stack[i]
		}
	}
	return nil
}

// FuncName returns the declared name of the function node returned by
// FuncFor ("" for function literals and nil).
func FuncName(fn ast.Node) string {
	if d, ok := fn.(*ast.FuncDecl); ok {
		return d.Name.Name
	}
	return ""
}

// IsNamedType reports whether t (after pointer indirection and alias
// unwrapping) is the named type pkgName.typeName, matching the package
// by name rather than import path so analyzer fixtures can declare
// stand-in packages.
func IsNamedType(t types.Type, pkgName, typeName string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Name() == pkgName && obj.Name() == typeName
}

// Callee resolves the called function/method object of call, or nil.
func Callee(info *types.Info, call *ast.CallExpr) types.Object {
	fun := ast.Unparen(call.Fun)
	switch f := fun.(type) {
	case *ast.Ident:
		return info.Uses[f]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[f]; ok {
			return sel.Obj()
		}
		return info.Uses[f.Sel]
	}
	return nil
}

// IsPkgFunc reports whether obj is the package-level function pkg.name,
// matching the package by path.
func IsPkgFunc(obj types.Object, pkgPath, name string) bool {
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	return fn.Pkg() != nil && fn.Pkg().Path() == pkgPath && fn.Name() == name
}

// ExprString renders e compactly for diagnostics and receiver matching.
func ExprString(e ast.Expr) string {
	return types.ExprString(e)
}
