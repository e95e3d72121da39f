// Package analysis is the progqoivet analyzer framework, the part of
// golang.org/x/tools/go/analysis the suite uses: cmd/progqoivet and
// analyzertest hand each Analyzer a type-checked package as a Pass.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer is one named check.
type Analyzer struct {
	Name string // short identifier, as used in //progqoivet:allow directives
	Doc  string // first line is a one-sentence summary
	Run  func(*Pass) error
}

// A Pass is one package handed to one Analyzer.
type Pass struct {
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(Diagnostic)
}

// A Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf reports a diagnostic with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// NewInfo returns the types.Info the driver and the fixture harness
// type-check into, with every map allocated.
func NewInfo() *types.Info {
	return &types.Info{
		Types:        map[ast.Expr]types.TypeAndValue{},
		Defs:         map[*ast.Ident]types.Object{},
		Uses:         map[*ast.Ident]types.Object{},
		Implicits:    map[ast.Node]types.Object{},
		Instances:    map[*ast.Ident]types.Instance{},
		Scopes:       map[ast.Node]*types.Scope{},
		Selections:   map[*ast.SelectorExpr]*types.Selection{},
		FileVersions: map[*ast.File]string{},
	}
}
