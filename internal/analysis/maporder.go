package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// emitSeedNames are call targets (function or method names) that put a
// function on an order-sensitive path: row emission (the Sink
// protocol), event emission, key encoding / fingerprinting, and the
// wire encoder. A function that calls one of these — directly or
// through other functions in its package — must not iterate a Go map
// without sorting, because map order would leak into row order, event
// order, or fingerprint bytes.
var emitSeedNames = map[string]bool{
	// Sink protocol (exec.Sink), and the source driver's leaf delivery
	// (exec.Leaf.PushBatch).
	"Push": true, "PushBatch": true,
	// Event and row emission in core/engine.
	"emit": true, "Emit": true, "EmitFinal": true, "flushRows": true,
	// Key codec and fingerprint paths.
	"AppendKey": true, "HashKeys": true, "Fingerprint": true,
	// Wire encoder (internal/server).
	"writeFrame": true, "appendRow": true,
}

// MapOrderAnalyzer flags `range` over a map inside any function that
// reaches a row-emit, event-emit, or fingerprint path (the determinism
// contract in docs/architecture.md). Fix by sorting the keys into a
// slice and ranging over that, or annotate an order-insensitive loop
// with //adp:unordered-ok.
var MapOrderAnalyzer = &Analyzer{
	Name: "maporder",
	Doc:  "flag nondeterministic map iteration on emit/fingerprint paths",
	Packages: append(append([]string{}, VirtualTimePackages...),
		"internal/server", "internal/types"),
	Run: runMapOrder,
}

func runMapOrder(pass *Pass) error {
	reaches := emitReachable(pass)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !reaches[fn] {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				rng, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				t := pass.TypesInfo.TypeOf(rng.X)
				if t == nil {
					return true
				}
				if _, isMap := t.Underlying().(*types.Map); !isMap {
					return true
				}
				if pass.Directives.AllowedAt(rng.Pos(), DirectiveUnorderedOK) {
					return true
				}
				// The blessed fix: a loop that only collects keys into a
				// slice, in a function that sorts afterwards.
				if isCollectLoop(pass, rng) && callsSort(pass, fn) {
					return true
				}
				pass.Reportf(rng.Pos(), "map iteration in %s, which reaches an emit/fingerprint path; iteration order is nondeterministic — sort the keys into a slice first or annotate //adp:unordered-ok", fn.Name.Name)
				return true
			})
		}
	}
	return nil
}

// isCollectLoop reports whether the range body is exactly one
// append-assignment (`keys = append(keys, k)`): a key-collection loop
// whose order is erased by the sort that callsSort verifies.
func isCollectLoop(pass *Pass, rng *ast.RangeStmt) bool {
	if rng.Body == nil || len(rng.Body.List) != 1 {
		return false
	}
	as, ok := rng.Body.List[0].(*ast.AssignStmt)
	if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 || as.Tok != token.ASSIGN {
		return false
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	return ok && isBuiltin(pass, call.Fun, "append")
}

// callsSort reports whether fn calls into package sort or slices
// anywhere in its body.
func callsSort(pass *Pass, fn *ast.FuncDecl) bool {
	found := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if pkg := packageOf(pass.TypesInfo.Uses[sel.Sel]); pkg != nil && (pkg.Path() == "sort" || pkg.Path() == "slices") {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// emitReachable computes, per function declaration in the package, whether
// the function can reach an emit seed: it either calls a seed-named
// function/method directly, or calls (transitively, within this package)
// a function that does. The analysis is name-based at call sites for
// cross-package seeds (the Sink protocol is an interface — dynamic
// dispatch has no static callee) and object-based for intra-package
// propagation.
func emitReachable(pass *Pass) map[*ast.FuncDecl]bool {
	type funcNode struct {
		decl  *ast.FuncDecl
		seed  bool
		calls map[types.Object]bool
	}
	byObj := map[types.Object]*funcNode{}
	var nodes []*funcNode
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			node := &funcNode{decl: fn, calls: map[types.Object]bool{}}
			if obj := pass.TypesInfo.Defs[fn.Name]; obj != nil {
				byObj[obj] = node
			}
			nodes = append(nodes, node)
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				var id *ast.Ident
				switch f := call.Fun.(type) {
				case *ast.Ident:
					id = f
				case *ast.SelectorExpr:
					id = f.Sel
				default:
					return true
				}
				if emitSeedNames[id.Name] {
					node.seed = true
				}
				if obj := pass.TypesInfo.Uses[id]; obj != nil {
					node.calls[obj] = true
				}
				return true
			})
		}
	}
	// Propagate seeds backwards through intra-package calls to a fixed
	// point (the graph is small; a simple iteration converges fast).
	for changed := true; changed; {
		changed = false
		for _, n := range nodes {
			if n.seed {
				continue
			}
			for callee := range n.calls {
				if cn := byObj[callee]; cn != nil && cn.seed {
					n.seed = true
					changed = true
					break
				}
			}
		}
	}
	out := map[*ast.FuncDecl]bool{}
	for _, n := range nodes {
		out[n.decl] = n.seed
	}
	return out
}
