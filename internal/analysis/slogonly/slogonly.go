// Package slogonly defines an analyzer banning unstructured logging in
// the serving path: no stdlib log package and no implicit-stdout
// fmt.Print/Printf/Println inside internal/server or cmd/progqoid,
// except in the main bootstrap function.
//
// PR 6 converted the daemon to log/slog so every record carries route,
// status, byte and request-ID attributes and the log format is an
// operator choice (-log-format json|text). A stray log.Printf or
// fmt.Println reintroduces unparseable lines that bypass level gating —
// on a node serving heavy traffic that is operational noise at best and
// a disk-filling liability at worst. main may still print: flag usage
// errors and startup failures legitimately go to stderr before a logger
// exists.
package slogonly

import (
	"go/ast"
	"go/types"

	"progqoi/internal/analysis"
	"progqoi/internal/analysis/analysisutil"
)

const doc = `check that the serving path logs through log/slog only

Within progqoi/internal/server and progqoi/cmd/progqoid any use of the
stdlib log package or of fmt.Print/Printf/Println (which write to
process stdout) is reported, except inside func main. Structured serving
logs are a PR 6 invariant: records must carry attributes and respect
-log-format/-log-level.`

const name = "slogonly"

// Analyzer is the slogonly analyzer.
var Analyzer = &analysis.Analyzer{
	Name: name,
	Doc:  doc,
	Run:  run,
}

// pkgs restricts the check to the serving path: a comma-separated list
// of paths, empty for every package (the fixture tests clear it).
var pkgs = "progqoi/internal/server,progqoi/cmd/progqoid"

// bannedFmt are the fmt functions that write to implicit stdout.
var bannedFmt = map[string]bool{"Print": true, "Printf": true, "Println": true}

func run(pass *analysis.Pass) error {
	if !analysisutil.PkgMatch(pkgs, pass.Pkg.Path()) {
		return nil
	}
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
		var what string
		switch {
		case fn.Pkg().Path() == "log":
			what = "log." + fn.Name()
		case fn.Pkg().Path() == "fmt" && bannedFmt[fn.Name()]:
			what = "fmt." + fn.Name()
		default:
			return
		}
		if analysisutil.InTestFile(pass, call.Pos()) {
			return
		}
		// The main bootstrap may print: usage errors and startup
		// failures precede the logger.
		if analysisutil.FuncName(analysisutil.FuncFor(stack)) == "main" {
			return
		}
		if f := analysisutil.FileFor(pass, call.Pos()); f != nil &&
			analysisutil.Allowed(pass, f, call.Pos(), name) {
			return
		}
		pass.Reportf(call.Pos(),
			"%s in the serving path: log through *slog.Logger (server.Options.Log) so records are structured and level-gated (PR 6 invariant)", what)
	})
	return nil
}
