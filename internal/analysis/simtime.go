package analysis

import (
	"go/ast"
)

// wallClockFuncs are the package time functions that read the host
// clock or arm host timers. Types and constants (time.Duration,
// time.Millisecond) stay legal: configuration is fine, *reading the
// wall clock from simulation code* is the contract violation — virtual
// time must come from sim.Engine.Now alone, or replay breaks.
var wallClockFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
}

// Simtime forbids wall-clock reads and host timers in the simulation
// and encoding packages.
var Simtime = &Analyzer{
	Name:     "simtime",
	Contract: "sim and encoding packages read only virtual time (sim.Engine.Now), never the wall clock",
	Doc: `simtime reports uses of time.Now, time.Since, time.Sleep and the other
wall-clock/timer functions inside the deterministic simulation packages and the
result-encoding packages. A single wall-clock read that feeds simulation state
or encoded output makes runs non-reproducible. Suppress intentional host-side
uses (the experiment pool's watchdog timers) with //lint:simtime <reason>.`,
	Run: runSimtime,
}

func runSimtime(pass *Pass) {
	if !inReplayScope(pass.Path()) {
		return
	}
	pass.inspectWithStack(func(n ast.Node, _ []ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkgPath, name, ok := pkgFuncCall(pass.TypesInfo(), sel)
		if !ok || pkgPath != "time" || !wallClockFuncs[name] {
			return true
		}
		pass.Reportf(sel.Pos(),
			"wall clock leaks into simulation: time.%s is forbidden here; use the sim.Engine clock (Now, PostRun, Arm) so runs replay byte-identically", name)
		return true
	})
}
