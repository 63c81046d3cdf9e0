package analysis

import (
	"go/ast"
	"go/token"
)

// Postdiscipline enforces the engine's callback contract: all
// simulation state is driven from a single goroutine, and the engine
// runs every event through a Runner's RunAt — so a RunAt body must not
// block (channels, sync primitives), and sim packages must not start
// goroutines at all. A Runner posted from a map iteration is maporder's
// concern: no map range survives in deterministic scope.
var Postdiscipline = &Analyzer{
	Name:     "postdiscipline",
	Contract: "no goroutines in sim packages; RunAt callbacks never block",
	Doc: `postdiscipline reports, inside the deterministic simulation packages:
(1) go statements — the engine is single-goroutine by design; RequestStop is
the one sanctioned cross-goroutine entry point; (2) RunAt methods, the engine's
event callbacks, that perform channel operations or take sync locks — an event
callback that blocks deadlocks the whole virtual clock. Suppress with
//lint:postdiscipline <reason> (alias //lint:goroutine for go statements).`,
	Run: runPostdiscipline,
}

func runPostdiscipline(pass *Pass) {
	if !inDeterministicScope(pass.Path()) {
		return
	}
	pass.inspectWithStack(func(n ast.Node, _ []ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			pass.Reportf(n.Pos(),
				"goroutine started in a deterministic sim package: all simulation state is single-goroutine; move concurrency to the experiment pool or document with //lint:goroutine <reason>")
		case *ast.FuncDecl:
			if isRunAt(n) && n.Body != nil {
				checkCallback(pass, n.Body)
			}
		}
		return true
	})
}

// isRunAt reports whether fd is a RunAt method: a sim.Runner callback,
// which the engine invokes from its event loop.
func isRunAt(fd *ast.FuncDecl) bool {
	return fd.Name.Name == "RunAt" && fd.Recv != nil
}

// checkCallback inspects the body of one event callback.
func checkCallback(pass *Pass, body *ast.BlockStmt) {
	info := pass.TypesInfo()
	ast.Inspect(body, func(n ast.Node) bool {
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
