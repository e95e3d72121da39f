// Package tokencmp defines an analyzer enforcing the repository's
// bearer-token comparison convention: secrets are compared only through
// server.TokenEqual, never with a raw == / != and never with a direct
// subtle.ConstantTimeCompare.
//
// The invariant exists because a raw string comparison short-circuits on
// the first differing byte, turning response timing into an oracle that
// leaks the secret byte by byte — and the "obvious" fix, calling
// subtle.ConstantTimeCompare on the raw strings, still leaks the
// secret's length (the compare returns immediately on unequal lengths).
// server.TokenEqual hashes both sides to fixed width first, closing both
// channels; the PR 9 audit migrated the admin reload gate, progqoid's
// pprof gate, and the tenant auth path onto it, and this analyzer keeps
// the tree there.
//
// Two shapes are flagged:
//
//   - x == y / x != y where either operand is a string whose name says
//     it holds a secret (token, secret, bearer, password, apikey,
//     credential — case-insensitive). Comparisons against the empty
//     string literal are allowed: "is a token configured at all" is a
//     presence check, not a verification.
//   - any call of crypto/subtle.ConstantTimeCompare. The one blessed
//     call site — inside server.TokenEqual, on fixed-width digests —
//     carries a //progqoivet:allow directive documenting why it is safe.
package tokencmp

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"

	"progqoi/internal/analysis"
	"progqoi/internal/analysis/analysisutil"
)

const doc = `check that bearer tokens are compared via server.TokenEqual

Raw ==/!= on a secret string is a byte-by-byte timing oracle, and a
direct subtle.ConstantTimeCompare on raw tokens still leaks the secret's
length. Every token comparison must go through server.TokenEqual, which
hashes both sides to fixed width before the constant-time compare.`

const name = "tokencmp"

// Analyzer is the tokencmp analyzer.
var Analyzer = &analysis.Analyzer{
	Name: name,
	Doc:  doc,
	Run:  run,
}

// secretName matches identifiers that, by this repository's naming
// conventions, hold a bearer secret.
var secretName = regexp.MustCompile(`(?i)(token|secret|bearer|password|passwd|apikey|credential)`)

func run(pass *analysis.Pass) error {
	report := func(pos token.Pos, format string, args ...any) {
		if analysisutil.InTestFile(pass, pos) {
			// Test assertions on parsed config fields are not a serving-
			// path timing oracle.
			return
		}
		if f := analysisutil.FileFor(pass, pos); f != nil && analysisutil.Allowed(pass, f, pos, name) {
			return
		}
		pass.Reportf(pos, format, args...)
	}
	analysisutil.WalkStack(pass.Files, func(n ast.Node, _ []ast.Node) {
		switch n := n.(type) {
		case *ast.BinaryExpr:
			if n.Op != token.EQL && n.Op != token.NEQ {
				return
			}
			if isEmptyStringLit(n.X) || isEmptyStringLit(n.Y) {
				return
			}
			if sx, sy := isSecretString(pass.TypesInfo, n.X), isSecretString(pass.TypesInfo, n.Y); sx || sy {
				operand := n.X
				if !sx {
					operand = n.Y
				}
				report(n.OpPos,
					"%s looks like a bearer secret: compare with server.TokenEqual, not %s — raw comparison is a byte-by-byte timing oracle (PR 9 token audit)",
					analysisutil.ExprString(operand), n.Op)
			}
		case *ast.CallExpr:
			if analysisutil.IsPkgFunc(analysisutil.Callee(pass.TypesInfo, n), "crypto/subtle", "ConstantTimeCompare") {
				report(n.Pos(),
					"direct subtle.ConstantTimeCompare leaks the secret's length on unequal inputs: use server.TokenEqual (hash-then-compare) or carry an allow directive explaining why the inputs are fixed-width")
			}
		}
	})
	return nil
}

// isEmptyStringLit reports whether e is the literal "".
func isEmptyStringLit(e ast.Expr) bool {
	lit, ok := ast.Unparen(e).(*ast.BasicLit)
	return ok && lit.Kind == token.STRING && (lit.Value == `""` || lit.Value == "``")
}

// isSecretString reports whether e is a string-typed expression whose
// name marks it as a secret: an identifier, the final selector of a
// field access, or the callee name of a call.
func isSecretString(info *types.Info, e ast.Expr) bool {
	e = ast.Unparen(e)
	t := info.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	if !ok || b.Kind() != types.String {
		return false
	}
	switch e := e.(type) {
	case *ast.Ident:
		return secretName.MatchString(e.Name)
	case *ast.SelectorExpr:
		return secretName.MatchString(e.Sel.Name)
	case *ast.CallExpr:
		switch f := ast.Unparen(e.Fun).(type) {
		case *ast.Ident:
			return secretName.MatchString(f.Name)
		case *ast.SelectorExpr:
			return secretName.MatchString(f.Sel.Name)
		}
	}
	return false
}
