package analysis

import (
	"go/ast"
	"go/types"
)

// Maporder bans `range` over a map in replay scope. Go randomizes map
// iteration order per run, so a loop that posts events, emits obs
// events, writes output or folds values in that order breaks
// byte-identical replay. Rather than prove each loop order-independent,
// the rule admits none: iterate ordered.Keys(m), or empty the map with
// clear(m). The ban covers every shape a prover would have to judge,
// including engine callbacks and Runners built from a map-range key or
// value.
var Maporder = &Analyzer{
	Name:     "maporder",
	Contract: "no range over a map in sim or encoding packages; iterate ordered.Keys(m) or clear(m)",
	Doc: `maporder reports every range-over-map loop, generic map type parameters
included, in the deterministic simulation and encoding packages. Map iteration
order is random per run, so iterate the sorted keys from ordered.Keys(m) and
index the map, or empty it with clear(m). Suppress a loop that must range the
map itself with //lint:maporder <reason>.`,
	Run: runMaporder,
}

func runMaporder(pass *Pass) {
	if !inReplayScope(pass.Path()) {
		return
	}
	pass.inspectWithStack(func(n ast.Node, _ []ast.Node) bool {
		if rng, ok := n.(*ast.RangeStmt); ok && isMapType(pass.TypesInfo().TypeOf(rng.X)) {
			pass.Reportf(rng.Pos(), "range over a map: iteration order is random per run; iterate ordered.Keys(m) and index the map, or empty it with clear(m)")
		}
		return true
	})
}

// isMapType reports whether ranging over t iterates a map. A type
// parameter ranges over its core type, which is a map when any term of
// its constraint is one.
func isMapType(t types.Type) bool {
	if tp, ok := t.(*types.TypeParam); ok {
		t = tp.Constraint()
	}
	if t == nil {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Map:
		return true
	case *types.Interface:
		for i := 0; i < u.NumEmbeddeds(); i++ {
			if isMapType(u.EmbeddedType(i)) {
				return true
			}
		}
	case *types.Union:
		for i := 0; i < u.Len(); i++ {
			if isMapType(u.Term(i).Type()) {
				return true
			}
		}
	}
	return false
}
