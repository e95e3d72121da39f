// Package lockguard defines an analyzer that machine-checks the
// repository's mutex annotations: a struct field whose comment says
// "guarded by <mu>" may only be read or written while that sibling
// mutex is held.
//
// The motivating bug is the PR 4 /healthz race: the server's limiter
// counters (requests, inflight, maxSeen) were updated under a mutex but
// snapshotted without it, so a stats poll could observe inflight above
// maxConcurrent. The fix moved the reads under the same critical
// section; this analyzer makes the rule survive the next refactor, for
// every annotated field in internal/server, internal/client,
// internal/lru, internal/obs and internal/storage.
//
// # Annotation
//
// Add a line or doc comment to the field:
//
//	mu       sync.Mutex
//	inflight map[string]*call // guarded by mu
//
// The named mutex must be a sibling field of type sync.Mutex or
// sync.RWMutex in the same struct; an annotation naming a missing or
// non-mutex sibling is itself reported, so annotations cannot rot.
//
// # What the check proves
//
// The analysis is intraprocedural and lexical: within the enclosing
// top-level function, an access to x.f (annotated "guarded by mu")
// counts as locked when more x.mu.Lock()/RLock() than Unlock()/RUnlock()
// calls appear before it in source order — deferred unlocks keep the
// lock held to the function end, matching how they execute. Writes
// (assignment, ++/--, compound assignment, taking the address) require
// the exclusive lock; reads accept RLock too. Struct-literal
// initialization does not go through a selector and is naturally
// exempt, so constructors stay clean without special cases.
//
// Source order approximates execution order, which is exact for the
// straight-line Lock/defer-Unlock and Lock/op/Unlock shapes this
// codebase uses. The lock depth is clamped at zero so a branch that
// unlocks early and returns (the lookup/fetch/store shape in
// Client.Index) does not cancel out a later re-acquisition. A goroutine
// launched inside a critical section inherits the section's lexical
// state (a known false-negative), and
// //progqoivet:allow lockguard -- <reason> documents any genuinely
// unprovable site.
package lockguard

import (
	"flag"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"

	"progqoi/internal/analysis/analysisutil"
)

const doc = `check that "guarded by <mu>" fields are accessed under their mutex

A struct field annotated with a "guarded by <mu>" comment may only be
accessed while the named sibling mutex is held (intraprocedural,
source-order lock tracking; writes require the exclusive lock). The PR 4
/healthz unguarded-stats race is the regression this prevents.`

const name = "lockguard"

// Analyzer is the lockguard analyzer.
var Analyzer = &analysis.Analyzer{
	Name:     name,
	Doc:      doc,
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

// pkgs restricts the check to the concurrency-bearing packages; empty
// means every package (used by the fixture tests).
var pkgs string

func init() {
	Analyzer.Flags.Init("lockguard", flag.ContinueOnError)
	Analyzer.Flags.StringVar(&pkgs, "pkgs",
		"progqoi/internal/server,progqoi/internal/client,progqoi/internal/lru,progqoi/internal/obs,progqoi/internal/storage",
		"comma-separated package paths the check applies to (empty: all)")
}

// guardRe extracts the mutex name from a field comment.
var guardRe = regexp.MustCompile(`guarded by ([A-Za-z_][A-Za-z0-9_]*)`)

// guard is one annotated field: the name of the sibling mutex that
// protects it.
type guard struct {
	mutex string
	rw    bool // sync.RWMutex: RLock suffices for reads
}

// lockEvent is one Lock/Unlock-family call inside a function, keyed by
// the textual receiver chain ("c.mu" → base "c", mutex "mu").
type lockEvent struct {
	pos      token.Pos
	base     string // receiver chain owning the mutex
	mutex    string
	delta    int  // +1 acquire, -1 release (0 for deferred releases)
	writer   bool // Lock/Unlock vs RLock/RUnlock
	deferred bool
}

func run(pass *analysis.Pass) (any, error) {
	if !analysisutil.PkgMatch(pkgs, pass.Pkg.Path()) {
		return nil, nil
	}
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)

	guards := collectGuards(pass, ins)
	if len(guards) == 0 {
		return nil, nil
	}

	events := map[ast.Node][]lockEvent{} // per top-level function, sorted

	ins.WithStack([]ast.Node{(*ast.SelectorExpr)(nil)}, func(n ast.Node, push bool, stack []ast.Node) bool {
		if !push {
			return true
		}
		sel := n.(*ast.SelectorExpr)
		selection, ok := pass.TypesInfo.Selections[sel]
		if !ok || selection.Kind() != types.FieldVal {
			return true
		}
		fieldVar, ok := selection.Obj().(*types.Var)
		if !ok {
			return true
		}
		g, ok := guards[fieldVar]
		if !ok {
			return true
		}
		fn := outermostFunc(stack)
		if fn == nil {
			return true
		}
		evs, ok := events[fn]
		if !ok {
			evs = collectLockEvents(fn)
			events[fn] = evs
		}
		base := analysisutil.ExprString(sel.X)
		write := isWrite(stack, sel)
		if held(evs, sel.Pos(), base, g, write) {
			return true
		}
		if f := analysisutil.FileFor(pass, sel.Pos()); f != nil &&
			analysisutil.Allowed(pass, f, sel.Pos(), name) {
			return true
		}
		kind := "read"
		if write {
			kind = "write"
		}
		pass.Reportf(sel.Sel.Pos(),
			"%s of %s.%s without holding %s.%s (field is annotated \"guarded by %s\"; the PR 4 /healthz race is this exact bug)",
			kind, base, sel.Sel.Name, base, g.mutex, g.mutex)
		return true
	})
	return nil, nil
}

// collectGuards finds every annotated struct field and validates that
// the named mutex is a sibling field of a sync mutex type.
func collectGuards(pass *analysis.Pass, ins *inspector.Inspector) map[*types.Var]guard {
	guards := map[*types.Var]guard{}
	ins.Preorder([]ast.Node{(*ast.StructType)(nil)}, func(n ast.Node) {
		st := n.(*ast.StructType)
		for _, field := range st.Fields.List {
			name, ok := guardAnnotation(field)
			if !ok {
				continue
			}
			rw, found := findMutexField(pass, st, name)
			if !found {
				pass.Reportf(field.Pos(),
					"\"guarded by %s\" names no sibling sync.Mutex/RWMutex field in this struct (stale annotation?)", name)
				continue
			}
			for _, fname := range field.Names {
				if v, ok := pass.TypesInfo.Defs[fname].(*types.Var); ok {
					guards[v] = guard{mutex: name, rw: rw}
				}
			}
		}
	})
	return guards
}

// guardAnnotation extracts "guarded by <name>" from the field's doc or
// line comment.
func guardAnnotation(field *ast.Field) (string, bool) {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		if m := guardRe.FindStringSubmatch(cg.Text()); m != nil {
			return m[1], true
		}
	}
	return "", false
}

// findMutexField checks that the struct declares a field named name of
// type sync.Mutex or sync.RWMutex, reporting whether it was found and
// whether it is an RWMutex.
func findMutexField(pass *analysis.Pass, st *ast.StructType, name string) (rw, found bool) {
	for _, f := range st.Fields.List {
		for _, fn := range f.Names {
			if fn.Name != name {
				continue
			}
			t := pass.TypesInfo.TypeOf(f.Type)
			if analysisutil.IsNamedType(t, "sync", "Mutex") {
				return false, true
			}
			if analysisutil.IsNamedType(t, "sync", "RWMutex") {
				return true, true
			}
			return false, false
		}
	}
	return false, false
}

// outermostFunc returns the top-level function declaration or literal
// enclosing the access — the lexical scope the lock tracking runs over.
func outermostFunc(stack []ast.Node) ast.Node {
	for _, n := range stack {
		switch n.(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			return n
		}
	}
	return nil
}

// collectLockEvents walks one function and records every mutex
// Lock/Unlock-family call in source order.
func collectLockEvents(fn ast.Node) []lockEvent {
	var evs []lockEvent
	var walk func(n ast.Node, deferred bool)
	walk = func(n ast.Node, deferred bool) {
		ast.Inspect(n, func(m ast.Node) bool {
			if d, ok := m.(*ast.DeferStmt); ok {
				walk(d.Call, true)
				return false
			}
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			var acquire, writer bool
			switch sel.Sel.Name {
			case "Lock":
				acquire, writer = true, true
			case "RLock":
				acquire, writer = true, false
			case "Unlock":
				writer = true
			case "RUnlock":
			default:
				return true
			}
			// Receiver chain: base.mu (or bare mu for a local mutex).
			var base, mutex string
			switch r := ast.Unparen(sel.X).(type) {
			case *ast.SelectorExpr:
				base, mutex = analysisutil.ExprString(r.X), r.Sel.Name
			case *ast.Ident:
				base, mutex = "", r.Name
			default:
				return true
			}
			delta := 1
			if !acquire {
				delta = -1
				if deferred {
					// A deferred unlock runs at function exit: the lock
					// stays held for the rest of the source text.
					delta = 0
				}
			}
			evs = append(evs, lockEvent{
				pos: call.Pos(), base: base, mutex: mutex,
				delta: delta, writer: writer, deferred: deferred,
			})
			return true
		})
	}
	walk(fn, false)
	sort.Slice(evs, func(i, j int) bool { return evs[i].pos < evs[j].pos })
	return evs
}

// held reports whether the guard's mutex (on the same receiver chain) is
// lexically held at pos. Writes require the exclusive lock; reads
// accept a read lock on RWMutexes.
func held(evs []lockEvent, pos token.Pos, base string, g guard, write bool) bool {
	var wdepth, rdepth int
	for _, e := range evs {
		if e.pos >= pos {
			break
		}
		if e.mutex != g.mutex || e.base != base {
			continue
		}
		if e.writer {
			wdepth += e.delta
		} else {
			rdepth += e.delta
		}
		// Clamp at zero: an early-return branch that unlocks before the
		// straight-line code re-acquires (the lookup/fetch/store shape in
		// Client.Index) would otherwise leave the count negative and hide
		// the later Lock.
		if wdepth < 0 {
			wdepth = 0
		}
		if rdepth < 0 {
			rdepth = 0
		}
	}
	if write {
		return wdepth > 0
	}
	return wdepth > 0 || (g.rw && rdepth > 0)
}

// isWrite reports whether the selector at the top of stack is written:
// assignment LHS (plain or compound), ++/--, or address-taken.
func isWrite(stack []ast.Node, sel *ast.SelectorExpr) bool {
	if len(stack) < 2 {
		return false
	}
	var child ast.Node = sel
	for i := len(stack) - 2; i >= 0; i-- {
		switch p := stack[i].(type) {
		case *ast.ParenExpr:
			child = p
			continue
		case *ast.AssignStmt:
			for _, lhs := range p.Lhs {
				if lhs == child {
					return true
				}
			}
			return false
		case *ast.IncDecStmt:
			return p.X == child
		case *ast.UnaryExpr:
			return p.Op == token.AND && p.X == child
		case *ast.IndexExpr:
			// x.m[k] = v writes the map, not the field binding — but the
			// access still mutates the guarded structure; treat the
			// indexed form on the LHS as a write of the field.
			if p.X == child {
				child = p
				continue
			}
			return false
		default:
			return false
		}
	}
	return false
}
