package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
)

// SinkCompleteAnalyzer checks that every sink entry tolerates empty input:
// the drivers flush zero-length runs at phase and fault boundaries, so a
// Push body that indexes its batch with a constant before a length guard is
// a latent panic. That a sink has its entry at all needs no analyzer:
// exec.Sink is Push, so the compiler checks it.
var SinkCompleteAnalyzer = &Analyzer{
	Name: "sinkcomplete",
	Doc:  "sink batch entries must tolerate empty batches",
	Run:  runSinkComplete,
}

func runSinkComplete(pass *Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || fn.Recv == nil {
				continue
			}
			if fn.Name.Name == "Push" {
				checkEmptyTolerant(pass, fn)
			}
		}
	}
	return nil
}

// checkEmptyTolerant flags constant-index access to the batch parameter
// that no length guard precedes: Push entries run on empty input at
// phase/fault boundaries.
func checkEmptyTolerant(pass *Pass, fn *ast.FuncDecl) {
	params := fn.Type.Params
	if params == nil || len(params.List) == 0 || len(params.List[0].Names) == 0 {
		return
	}
	batch := pass.TypesInfo.Defs[params.List[0].Names[0]]
	if batch == nil {
		return
	}
	usesParam := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		return ok && pass.TypesInfo.Uses[id] == batch
	}
	var firstIndex token.Pos = token.NoPos
	var firstIndexExpr *ast.IndexExpr
	var firstGuard token.Pos = token.NoPos
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.IndexExpr:
			if !usesParam(e.X) {
				return true
			}
			tv, ok := pass.TypesInfo.Types[e.Index]
			if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
				return true // loop-variable indexing is bounded by the loop
			}
			if firstIndex == token.NoPos || e.Pos() < firstIndex {
				firstIndex, firstIndexExpr = e.Pos(), e
			}
		case *ast.CallExpr:
			// len(batch) — any appearance counts as a guard if it precedes
			// the first constant index.
			guarded := isBuiltin(pass, e.Fun, "len") && len(e.Args) == 1 && usesParam(e.Args[0])
			if guarded && (firstGuard == token.NoPos || e.Pos() < firstGuard) {
				firstGuard = e.Pos()
			}
		}
		return true
	})
	if firstIndexExpr != nil && (firstGuard == token.NoPos || firstGuard > firstIndex) {
		pass.Reportf(firstIndex, "%s indexes its batch parameter before any length guard; Push entries must tolerate empty input (drivers flush zero-length runs)", fn.Name.Name)
	}
}
