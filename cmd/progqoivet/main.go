// Command progqoivet is the repository's custom static-analysis suite:
// a go vet tool whose analyzers machine-enforce invariants that were
// previously defended only by prose, tests, and code review.
//
// Run it through go vet, which loads the packages and their _test.go
// variants and caches the results:
//
//	go build -o progqoivet ./cmd/progqoivet
//	go vet -vettool=$PWD/progqoivet ./...
//
// It speaks go vet's protocol and nothing else: -V=full, -flags (it has
// none), and one x.cfg per package, whose findings it prints.
//
// Analyzers (each package's doc comment states the full invariant and
// the PR that motivated it):
//
//	lockguard    "guarded by <mu>" fields accessed only under their mutex (PR 4 /healthz race)
//	traceguard   allocating obs span calls sit behind a nil-Trace guard (PR 6 zero-alloc contract)
//	ctxflow      contexts flow end to end; no fresh roots below main (PR 2 context contract)
//	errwrapcheck sentinels matched with errors.Is and wrapped with %w (PR 2 ErrBadRequest contract)
//	flagmode     flag.NewFlagSet always uses ContinueOnError (the twice-fixed PR 4/5 bug)
//	slogonly     the serving path logs through log/slog only (PR 6 structured logging)
//	tokencmp     bearer tokens compared only via server.TokenEqual (PR 9 token audit)
//
// A finding can be suppressed — with a mandatory reason — by the
// directive described in internal/analysis/analysisutil:
//
//	//progqoivet:allow <analyzer> -- <reason>
package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"log"
	"os"
	"strings"

	"progqoi/internal/analysis"
	"progqoi/internal/analysis/ctxflow"
	"progqoi/internal/analysis/errwrapcheck"
	"progqoi/internal/analysis/flagmode"
	"progqoi/internal/analysis/lockguard"
	"progqoi/internal/analysis/slogonly"
	"progqoi/internal/analysis/tokencmp"
	"progqoi/internal/analysis/traceguard"
)

// analyzers run in this order, and their findings print in it.
var analyzers = []*analysis.Analyzer{
	lockguard.Analyzer,
	traceguard.Analyzer,
	ctxflow.Analyzer,
	errwrapcheck.Analyzer,
	flagmode.Analyzer,
	slogonly.Analyzer,
	tokencmp.Analyzer,
}

// config is the part of go vet's per-package JSON config the tool reads.
type config struct {
	ImportPath, GoVersion     string
	GoFiles                   []string
	ImportMap                 map[string]string // import path → package path
	PackageFile               map[string]string // package path → export data
	VetxOnly                  bool              // a dependency: no findings wanted
	VetxOutput                string            // the facts file go vet expects
	SucceedOnTypecheckFailure bool
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("progqoivet: ")
	arg := ""
	if len(os.Args) == 2 {
		arg = os.Args[1]
	}
	switch {
	case arg == "-V=full":
		// go vet keys its cache on the build ID and rejects a devel
		// version without one.
		exe, err := os.Executable()
		if err != nil {
			log.Fatal(err)
		}
		data, err := os.ReadFile(exe)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s version devel progqoivet buildID=%x\n", exe, sha256.Sum256(data))
	case arg == "-flags":
		fmt.Println("[]")
	case strings.HasSuffix(arg, ".cfg"):
		n, err := vet(arg)
		if err != nil {
			log.Fatal(err)
		}
		if n > 0 {
			os.Exit(1)
		}
	default:
		log.Fatal("run me as go vet -vettool=$(which progqoivet) ./...")
	}
}

// vet analyzes the package the config file describes, prints its
// findings and returns how many there were.
func vet(cfgFile string) (int, error) {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		return 0, err
	}
	var cfg config
	if err := json.Unmarshal(data, &cfg); err != nil {
		return 0, fmt.Errorf("decoding %s: %w", cfgFile, err)
	}
	// No analyzer has facts to export, but go vet expects the file.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			return 0, err
		}
	}
	if cfg.VetxOnly {
		return 0, nil
	}
	// Parse and type-check against the export data go vet had the
	// compiler write for the imports.
	pass := &analysis.Pass{Fset: token.NewFileSet(), TypesInfo: analysis.NewInfo()}
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(pass.Fset, name, nil, parser.ParseComments)
		if err != nil {
			return 0, typeErr(cfg, err)
		}
		pass.Files = append(pass.Files, f)
	}
	gc := importer.ForCompiler(pass.Fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(cfg.PackageFile[path])
	})
	tc := &types.Config{
		Importer:  importerFunc(func(path string) (*types.Package, error) { return gc.Import(cfg.ImportMap[path]) }),
		GoVersion: cfg.GoVersion,
	}
	if pass.Pkg, err = tc.Check(cfg.ImportPath, pass.Fset, pass.Files, pass.TypesInfo); err != nil {
		return 0, typeErr(cfg, err)
	}
	n := 0
	pass.Report = func(d analysis.Diagnostic) {
		fmt.Fprintf(os.Stderr, "%s: %s\n", pass.Fset.Position(d.Pos), d.Message)
		n++
	}
	for _, a := range analyzers {
		if err := a.Run(pass); err != nil {
			return n, fmt.Errorf("%s: %w", a.Name, err)
		}
	}
	return n, nil
}

// typeErr is err, or nil when go vet leaves parse and type errors to the
// compiler.
func typeErr(cfg config, err error) error {
	if cfg.SucceedOnTypecheckFailure {
		return nil
	}
	return err
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
