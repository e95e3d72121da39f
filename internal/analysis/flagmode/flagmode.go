// Package flagmode defines an analyzer enforcing the repository's CLI
// flag-set convention: every flag.NewFlagSet call must pass
// flag.ContinueOnError.
//
// The invariant exists because flag.ExitOnError calls os.Exit from deep
// inside argument parsing: -h exits 2 instead of printing usage as a
// clean success, parse errors bypass the command's error path, and
// nothing above main can test the behaviour. The bug shipped twice —
// cmd/progqoid was converted to ContinueOnError in PR 4 and all five
// cmd/progqoi subcommands needed the same fix again in PR 5 — which is
// exactly the kind of regression a machine check is for.
package flagmode

import (
	"go/ast"

	"progqoi/internal/analysis"
	"progqoi/internal/analysis/analysisutil"
)

const doc = `check that flag.NewFlagSet uses flag.ContinueOnError

Every flag set in this repository must be constructed with
flag.ContinueOnError so parse errors and -h return through the normal
error path instead of calling os.Exit mid-parse (the twice-fixed
ExitOnError bug of PRs 4 and 5).`

const name = "flagmode"

// Analyzer is the flagmode analyzer.
var Analyzer = &analysis.Analyzer{
	Name: name,
	Doc:  doc,
	Run:  run,
}

func run(pass *analysis.Pass) error {
	analysisutil.WalkStack(pass.Files, func(n ast.Node, _ []ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok || !analysisutil.IsPkgFunc(analysisutil.Callee(pass.TypesInfo, call), "flag", "NewFlagSet") {
			return
		}
		if len(call.Args) != 2 {
			return
		}
		mode := ast.Unparen(call.Args[1])
		if sel, ok := mode.(*ast.SelectorExpr); ok {
			if obj := pass.TypesInfo.Uses[sel.Sel]; obj != nil &&
				obj.Pkg() != nil && obj.Pkg().Path() == "flag" && obj.Name() == "ContinueOnError" {
				return
			}
		}
		if f := analysisutil.FileFor(pass, call.Pos()); f != nil &&
			analysisutil.Allowed(pass, f, call.Pos(), name) {
			return
		}
		pass.Reportf(call.Args[1].Pos(),
			"flag.NewFlagSet must use flag.ContinueOnError, not %s: ExitOnError/PanicOnError bypass the command's error path (see the PR 4/PR 5 progqoid and progqoi fixes)",
			analysisutil.ExprString(call.Args[1]))
	})
	return nil
}
