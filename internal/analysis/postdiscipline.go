package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Postdiscipline enforces the engine's callback contract: all
// simulation state is driven from a single goroutine, and event
// callbacks fire later — so a callback must not block (channels, sync
// primitives), and sim packages must not start goroutines at all. A
// callback scheduled from a map iteration is maporder's concern: no map
// range survives in deterministic scope.
var Postdiscipline = &Analyzer{
	Name:     "postdiscipline",
	Contract: "no goroutines in sim packages; Post/At callbacks never block",
	Doc: `postdiscipline reports, inside the deterministic simulation packages:
(1) go statements — the engine is single-goroutine by design; RequestStop is
the one sanctioned cross-goroutine entry point; (2) callbacks passed to
sim.Engine.Post/PostAfter/At/After/Reschedule that perform channel operations
or take sync locks — an event callback that blocks deadlocks the whole virtual
clock. Suppress with //lint:postdiscipline <reason> (alias //lint:goroutine for
go statements).`,
	Run: runPostdiscipline,
}

func runPostdiscipline(pass *Pass) {
	if !inDeterministicScope(pass.Path()) {
		return
	}
	info := pass.TypesInfo()
	pass.inspectWithStack(func(n ast.Node, _ []ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			pass.Reportf(n.Pos(),
				"goroutine started in a deterministic sim package: all simulation state is single-goroutine; move concurrency to the experiment pool or document with //lint:goroutine <reason>")
		case *ast.CallExpr:
			fn := methodCallee(info, n)
			if fn == nil || !isEnginePostFamily(fn) {
				return true
			}
			for _, arg := range n.Args {
				if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
					checkCallback(pass, lit)
				}
			}
		}
		return true
	})
}

// isEnginePostFamily reports whether fn is a sim.Engine method that
// takes a callback closure to run later.
func isEnginePostFamily(fn *types.Func) bool {
	for _, m := range []string{"Post", "PostAfter", "At", "After", "Reschedule"} {
		if isMethodOn(fn, "repro/internal/sim", "Engine", m) {
			return true
		}
	}
	return false
}

// checkCallback inspects one closure scheduled on the engine.
func checkCallback(pass *Pass, lit *ast.FuncLit) {
	info := pass.TypesInfo()
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			pass.Reportf(n.Pos(), "event callback sends on a channel: callbacks run on the sim goroutine and must never block")
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				pass.Reportf(n.Pos(), "event callback receives from a channel: callbacks run on the sim goroutine and must never block")
			}
		case *ast.SelectStmt:
			pass.Reportf(n.Pos(), "event callback uses select: callbacks run on the sim goroutine and must never block")
		case *ast.CallExpr:
			fn := methodCallee(info, n)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
				return true
			}
			if named, _ := namedReceiver(fn); named != nil {
				pass.Reportf(n.Pos(),
					"event callback calls sync.%s.%s: sim state is single-goroutine by contract; locking inside a callback hides a cross-goroutine access", named.Obj().Name(), fn.Name())
			}
		}
		return true
	})
}
