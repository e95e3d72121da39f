// Package analyzertest runs one progqoivet analyzer over a fixture
// package and checks its diagnostics, in the manner of x/tools'
// analysistest but on the standard library alone.
//
// It loads a fixture package from testdata/src/<pkg> GOPATH-style,
// typechecks it against the standard library (via the source importer,
// so no compiled export data is needed) and against sibling fixture
// packages, runs one analyzer over it, and compares the reported
// diagnostics with the fixture's expectations.
//
// Expectations use the analysistest comment convention: a comment
//
//	// want "regexp" "another regexp"
//
// on a source line declares that the analyzer must report, on that exact
// line, one diagnostic matching each quoted regular expression — and the
// harness fails on any diagnostic with no matching expectation, so
// fixtures prove both that an analyzer fires on violations and that it
// stays silent on conforming code.
package analyzertest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"progqoi/internal/analysis"
)

// Run loads testdata/src/<pkg> relative to the calling test's package
// directory, applies the analyzer, and checks its diagnostics against
// the fixture's // want comments.
func Run(t *testing.T, a *analysis.Analyzer, pkg string) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatalf("getwd: %v", err)
	}
	ld := newLoader(filepath.Join(wd, "testdata", "src"))
	lp, err := ld.load(pkg)
	if err != nil {
		t.Fatalf("loading fixture %q: %v", pkg, err)
	}
	diags, err := runAnalyzer(a, ld, lp)
	if err != nil {
		t.Fatalf("running %s on %q: %v", a.Name, pkg, err)
	}
	check(t, ld.fset, lp, diags)
}

// loaded is one typechecked fixture package.
type loaded struct {
	path  string
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

// loader resolves imports from testdata/src first (recursively loading
// fixture packages) and falls back to the standard library via the
// source importer, which typechecks GOROOT sources directly and so
// works in this offline build environment.
type loader struct {
	fset   *token.FileSet
	root   string
	pkgs   map[string]*loaded
	stdlib types.Importer
}

func newLoader(root string) *loader {
	fset := token.NewFileSet()
	return &loader{
		fset:   fset,
		root:   root,
		pkgs:   map[string]*loaded{},
		stdlib: importer.ForCompiler(fset, "source", nil),
	}
}

// Import implements types.Importer over the fixture tree + stdlib.
func (l *loader) Import(path string) (*types.Package, error) {
	if dir := filepath.Join(l.root, filepath.FromSlash(path)); isDir(dir) {
		lp, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return lp.pkg, nil
	}
	return l.stdlib.Import(path)
}

func isDir(dir string) bool {
	st, err := os.Stat(dir)
	return err == nil && st.IsDir()
}

// load parses and typechecks testdata/src/<path>.
func (l *loader) load(path string) (*loaded, error) {
	if lp, ok := l.pkgs[path]; ok {
		return lp, nil
	}
	dir := filepath.Join(l.root, filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no .go files in %s", dir)
	}
	info := analysis.NewInfo()
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck: %w", err)
	}
	lp := &loaded{path: path, files: files, pkg: pkg, info: info}
	l.pkgs[path] = lp
	return lp, nil
}

// runAnalyzer runs a over the fixture and collects its diagnostics.
func runAnalyzer(a *analysis.Analyzer, ld *loader, lp *loaded) ([]analysis.Diagnostic, error) {
	var diags []analysis.Diagnostic
	pass := &analysis.Pass{
		Fset:      ld.fset,
		Files:     lp.files,
		Pkg:       lp.pkg,
		TypesInfo: lp.info,
		Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
	}
	if err := a.Run(pass); err != nil {
		return nil, err
	}
	return diags, nil
}

// expectation is one quoted regexp from a // want comment.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	raw  string
	met  bool
}

var wantRe = regexp.MustCompile(`//\s*want\s+(.*)$`)

// wants collects the fixture's expectations, keyed to the line the
// comment sits on (the analysistest convention: the comment trails the
// offending code).
func wants(fset *token.FileSet, files []*ast.File) ([]*expectation, error) {
	var exps []*expectation
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				pats, err := quotedStrings(m[1])
				if err != nil {
					return nil, fmt.Errorf("%s: bad want comment: %w", pos, err)
				}
				for _, p := range pats {
					re, err := regexp.Compile(p)
					if err != nil {
						return nil, fmt.Errorf("%s: bad want pattern %q: %w", pos, p, err)
					}
					exps = append(exps, &expectation{
						file: pos.Filename, line: pos.Line, re: re, raw: p,
					})
				}
			}
		}
	}
	return exps, nil
}

// quotedStrings parses a sequence of Go string literals ("..." or
// `...`) separated by spaces.
func quotedStrings(s string) ([]string, error) {
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		if s[0] != '"' && s[0] != '`' {
			return nil, fmt.Errorf("expected quoted pattern at %q", s)
		}
		q := s[0]
		end := -1
		for i := 1; i < len(s); i++ {
			if s[i] == q && (q == '`' || s[i-1] != '\\') {
				end = i
				break
			}
		}
		if end < 0 {
			return nil, fmt.Errorf("unterminated pattern at %q", s)
		}
		lit := s[:end+1]
		p, err := strconv.Unquote(lit)
		if err != nil {
			return nil, fmt.Errorf("unquoting %q: %w", lit, err)
		}
		out = append(out, p)
		s = strings.TrimSpace(s[end+1:])
	}
	return out, nil
}

// check matches diagnostics against expectations one-to-one and fails
// the test on any unmatched diagnostic or unmet expectation.
func check(t *testing.T, fset *token.FileSet, lp *loaded, diags []analysis.Diagnostic) {
	t.Helper()
	exps, err := wants(fset, lp.files)
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		matched := false
		for _, e := range exps {
			if !e.met && e.file == pos.Filename && e.line == pos.Line && e.re.MatchString(d.Message) {
				e.met = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
		}
	}
	for _, e := range exps {
		if !e.met {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", e.file, e.line, e.raw)
		}
	}
}
