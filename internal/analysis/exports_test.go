package analysis_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// keptWithoutCaller lists the exported functions and methods under
// internal/ that no non-test file calls, each with the reason it stays. A
// key is the declaring package's path under internal/, the receiver type
// for a method, and the name, joined by dots.
var keptWithoutCaller = map[string]string{
	// Helpers that other packages' tests use.
	"source.DeltaRelation":     "the maintenance tests of core and engine build a delta stream's failover mirror with it",
	"algebra.NewGroup":         "the tests of algebra, opt and core build group-by specs with it",
	"algebra.CombinationCount": "the tests of algebra and core check the number of phase combinations with it",
	"core.Tree.JoinFor":        "the tests of core look up a tree's join by expression with it",
	"ivm.Multiset.Negative":    "the tests of ivm, core and engine read a view's negative multiplicities with it",
	"source.MustDeltaProvider": "the maintenance tests of core build delta providers with it",
	"source.SortednessAsc":     "the tests of source and datagen measure how ordered a relation is with it",
	"opt.CostPlan":             "the tests of opt price a given plan on a fresh planner with it; the monitor reuses its planner",

	// How tests observe live state.
	"stats.Histogram.EstimateEq":            "how the tests observe a live §4.5 histogram",
	"stats.Histogram.EstimateRange":         "how the tests observe a live §4.5 histogram",
	"stats.Histogram.Count":                 "how the tests observe a live §4.5 histogram",
	"stats.OrderDetector.Count":             "how the tests observe a live order detector",
	"exec.Driver.Leaves":                    "how the driver test observes the attached leaves",
	"exec.ParallelDriver.PartitionContexts": "how the parallel tests read each partition's clock",
	"exec.PartitionMerge.Released":          "how the merge tests count released rows",
	"server.Server.Draining":                "how the drain test waits for the server to stop admitting",

	// The test-support package, which only tests import.
	"analysis/analysistest.Run": "the analyzer tests run their testdata corpora through it",

	// Entry points that tests drive in place of the engine's own caller.
	"core.LowerPartitioned":           "the tree and parallel-aggregation tests lower onto a bare PartitionMerge with it",
	"engine.Engine.InjectDeltaFaults": "the standing chaos pins arm delta-source faults with it",

	// References the tests hold a faster path to.
	"types.DecodeKey": "FuzzKeyCodecRoundTrip and FuzzDecodeKeyArbitrary hold the key codec to it",
	"types.EncodeKey": "the key codec tests hold AppendKey's bytes to it",

	// Called by the standard library through an interface.
	"core.tupleHeap.Less": "container/heap calls it",
	"core.tupleHeap.Swap": "container/heap calls it",
}

// TestEveryExportHasACaller keeps dead exports from creeping back: every
// exported top-level function and method declared under internal/ must be
// named, other than by its own declaration, in a non-test .go file of the
// repository — benchmark/, cmd/ and examples/ included — or be listed in
// keptWithoutCaller with its reason.
//
// A top-level function is named by a selector pkg.Name whose pkg is the
// file's name for the declaring package's import, or by the bare Name in a
// file of the declaring package itself: a call of exec.Foo does not name
// algebra.Foo. Methods are matched by name alone, not by resolved
// object: a method name shared with another identifier (a method called
// String, Len or Push, a field, a local) counts as called even when the
// method itself is not. Either way the test may under-report, and it never
// reports an export that has a caller.
func TestEveryExportHasACaller(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("repository root not found above internal/analysis: %v", err)
	}
	fset := token.NewFileSet()
	declared := map[string]string{} // key -> name
	mentioned := map[string]bool{}  // method names
	named := map[string]bool{}      // package-qualified function keys
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, filepath.Dir(path))
		pkg, inInternal := strings.CutPrefix(filepath.ToSlash(rel), "internal/")
		imports := map[string]string{} // file's import name -> path under internal/
		for _, spec := range f.Imports {
			ipath, _ := strconv.Unquote(spec.Path.Value)
			ipkg, ok := strings.CutPrefix(ipath, modulePath+"/internal/")
			if !ok {
				continue
			}
			name := ipkg[strings.LastIndex(ipkg, "/")+1:]
			if spec.Name != nil {
				name = spec.Name.Name
			}
			imports[name] = ipkg
		}
		decls := map[*ast.Ident]bool{}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || !inInternal || !fd.Name.IsExported() {
				continue
			}
			decls[fd.Name] = true
			key := pkg + "." + fd.Name.Name
			if fd.Recv != nil {
				key = pkg + "." + recvName(fd.Recv.List[0].Type) + "." + fd.Name.Name
			}
			declared[key] = fd.Name.Name
		}
		sels := map[*ast.Ident]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				sels[n.Sel] = true
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					named[imports[x.Name]+"."+n.Sel.Name] = true
				}
			case *ast.Ident:
				if decls[n] {
					break
				}
				mentioned[n.Name] = true
				if inInternal && !sels[n] {
					named[pkg+"."+n.Name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(declared) == 0 {
		t.Fatal("no exported function found under internal/")
	}
	var dead []string
	called := func(key, name string) bool {
		if strings.Count(key, ".") == 1 {
			return named[key]
		}
		return mentioned[name]
	}
	for key, name := range declared {
		if !called(key, name) && keptWithoutCaller[key] == "" {
			dead = append(dead, key)
		}
	}
	sort.Strings(dead)
	for _, key := range dead {
		t.Errorf("%s is exported and nothing outside tests calls it: delete it, or list it in keptWithoutCaller with its reason", key)
	}
	for key := range keptWithoutCaller {
		if name, ok := declared[key]; !ok {
			t.Errorf("keptWithoutCaller lists %s, which is not declared", key)
		} else if called(key, name) {
			t.Errorf("keptWithoutCaller lists %s, which now has a caller", key)
		}
	}
}

// modulePath is the import path of the repository's root module.
const modulePath = "github.com/tukwila/adp"

// recvName returns the type name of a method receiver, without pointer or
// type parameters.
func recvName(x ast.Expr) string {
	switch x := x.(type) {
	case *ast.StarExpr:
		return recvName(x.X)
	case *ast.IndexExpr:
		return recvName(x.X)
	case *ast.IndexListExpr:
		return recvName(x.X)
	case *ast.Ident:
		return x.Name
	}
	return "?"
}
