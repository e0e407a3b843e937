package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// SoloEngine enforces the single-threaded-core contract: the engine and
// everything that runs inside event handlers execute on one goroutine,
// with concurrency confined to internal/runner (whole private engines per
// worker). Inside the core packages the analyzer forbids:
//
//   - `go` statements — a goroutine spawned from a handler races the
//     event loop and injects scheduler nondeterminism
//   - channel operations (send, receive, select) — they block the event
//     loop or smuggle cross-goroutine values into the run
//   - writes to package-level variables — engines running in parallel
//     sweep workers share package scope, so a global write is a data race
//     and couples runs that must be independent
//
// Reads of package-level state (named constants-in-var-form, sentinel
// errors, interface-conformance declarations) are fine; it is mutation
// that breaks engine isolation.
var SoloEngine = &Analyzer{
	Name: "soloengine",
	Doc:  "forbid goroutines, channel ops, and package-level writes in the single-threaded engine core",
	Applies: appliesTo(
		"dtdctcp/internal/sim",
		"dtdctcp/internal/netsim",
		"dtdctcp/internal/aqm",
		"dtdctcp/internal/tcp",
		"dtdctcp/internal/core",
		"dtdctcp/internal/chaos",
	),
	Run: runSoloEngine,
}

func runSoloEngine(pass *Pass) error {
	info := pass.TypesInfo
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				pass.Reportf(n.Pos(),
					"go statement in the single-threaded engine core: handlers race the event loop; confine concurrency to internal/runner")
			case *ast.SendStmt:
				pass.Reportf(n.Pos(),
					"channel send in the engine core blocks the event loop; pass values through event arguments instead")
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					pass.Reportf(n.Pos(),
						"channel receive in the engine core blocks the event loop and imports goroutine-scheduling nondeterminism")
				}
			case *ast.SelectStmt:
				pass.Reportf(n.Pos(),
					"select in the engine core: the case taken depends on goroutine scheduling, not the seed")
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					reportGlobalWrite(pass, info, lhs)
				}
			case *ast.IncDecStmt:
				reportGlobalWrite(pass, info, n.X)
			}
			return true
		})
	}
	return nil
}

// reportGlobalWrite flags assignment targets that resolve to
// package-level variables (directly or as the base of a field/index
// path).
func reportGlobalWrite(pass *Pass, info *types.Info, lhs ast.Expr) {
	base := lhs
	for {
		switch e := base.(type) {
		case *ast.SelectorExpr:
			// Stop at a package qualifier (pkg.Var handled below) but
			// follow field paths to their root identifier.
			if id, ok := e.X.(*ast.Ident); ok {
				if _, isPkg := info.Uses[id].(*types.PkgName); isPkg {
					base = e.Sel
					continue
				}
			}
			base = e.X
			continue
		case *ast.IndexExpr:
			base = e.X
			continue
		case *ast.StarExpr:
			// Writing through a dereferenced pointer: ownership is not
			// decidable syntactically; leave it to review.
			return
		case *ast.ParenExpr:
			base = e.X
			continue
		}
		break
	}
	id, ok := base.(*ast.Ident)
	if !ok {
		return
	}
	v, ok := objOf(info, id).(*types.Var)
	if !ok || v.IsField() {
		return
	}
	if v.Parent() == nil || v.Parent().Parent() != types.Universe {
		return // not package scope
	}
	pass.Reportf(lhs.Pos(),
		"write to package-level variable %s from the engine core: parallel sweep workers share package scope, so this is shared-mutable state; move it onto the Engine or Network", v.Name())
}
