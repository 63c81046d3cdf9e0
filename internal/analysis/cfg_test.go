package analysis

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// buildFunc type-checks src (a full file) and returns the CFG of the
// named function along with the type info.
func buildFunc(t *testing.T, src, name string) (*ast.FuncDecl, *types.Info, *CFG) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "cfgtest.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Types:      map[ast.Expr]types.TypeAndValue{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{Importer: importer.Default()}
	if _, err := conf.Check("cfgtest", fset, []*ast.File{f}, info); err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == name {
			return fd, info, BuildCFG(fd.Body)
		}
	}
	t.Fatalf("no function %q", name)
	return nil, nil, nil
}

// condBlock finds the block branching on an identifier condition with
// the given name.
func condBlock(t *testing.T, c *CFG, name string) *Block {
	t.Helper()
	for _, b := range c.Blocks {
		if len(b.Nodes) == 0 || len(b.Succs) != 2 {
			continue
		}
		if id, ok := b.Nodes[len(b.Nodes)-1].(*ast.Ident); ok && id.Name == name {
			return b
		}
	}
	t.Fatalf("no condition block for %q", name)
	return nil
}

// blockOfCall finds the block containing a call to the named function.
func blockOfCall(t *testing.T, c *CFG, name string) *Block {
	t.Helper()
	for _, b := range c.Blocks {
		for _, n := range b.Nodes {
			found := false
			ast.Inspect(n, func(x ast.Node) bool {
				if call, ok := x.(*ast.CallExpr); ok {
					if id, ok := call.Fun.(*ast.Ident); ok && id.Name == name {
						found = true
					}
				}
				return !found
			})
			if found {
				return b
			}
		}
	}
	t.Fatalf("no block calling %q", name)
	return nil
}

const cfgSrcIf = `package cfgtest
func sink() {}
func other() {}
func f(a, b bool) {
	if a && b {
		sink()
	} else {
		other()
	}
	sink()
}
`

func TestCFGShortCircuitDecomposition(t *testing.T) {
	_, _, c := buildFunc(t, cfgSrcIf, "f")
	ba := condBlock(t, c, "a")
	bb := condBlock(t, c, "b")
	if ba.Succs[0] != bb {
		t.Fatalf("a's true edge should reach b's condition block, got %v", ba.Succs[0])
	}
	// a false and b false must converge on the else arm.
	els := bb.Succs[1]
	if ba.Succs[1] != els {
		t.Fatalf("false edges of a and b should share the else block")
	}
	// The then block is reached only through b's true edge; the else
	// arm also through a's false edge, which skips b.
	if then := bb.Succs[0]; len(then.Preds) != 1 || then.Preds[0] != bb {
		t.Fatalf("the then block must be entered only from b's true edge")
	}
	if len(els.Preds) != 2 {
		t.Fatalf("the else arm must be entered from both a and b, got %d preds", len(els.Preds))
	}
}

func TestCFGLoop(t *testing.T) {
	src := `package cfgtest
func inner() {}
func outer() {}
func f(n int) {
	for i := 0; i < n; i++ {
		if i == 3 {
			break
		}
		inner()
	}
	outer()
}
`
	_, _, c := buildFunc(t, src, "f")
	body := blockOfCall(t, c, "inner")
	// The loop body must eventually cycle back: some ancestor chain from
	// the body reaches itself.
	seen := map[*Block]bool{}
	var walk func(b *Block) bool
	walk = func(b *Block) bool {
		if seen[b] {
			return false
		}
		seen[b] = true
		for _, s := range b.Succs {
			if s == body || walk(s) {
				return true
			}
		}
		return false
	}
	if !walk(body) {
		t.Fatalf("loop body should be on a cycle")
	}
}

func TestCFGSwitchFallthrough(t *testing.T) {
	src := `package cfgtest
func one() {}
func two() {}
func f(n int) {
	switch n {
	case 1:
		one()
		fallthrough
	case 2:
		two()
	}
}
`
	_, _, c := buildFunc(t, src, "f")
	b1 := blockOfCall(t, c, "one")
	b2 := blockOfCall(t, c, "two")
	linked := false
	for _, s := range b1.Succs {
		if s == b2 {
			linked = true
		}
	}
	if !linked {
		t.Fatalf("fallthrough should link case 1's block to case 2's block")
	}
}

func TestCFGDeferAtExit(t *testing.T) {
	src := `package cfgtest
func cleanup() {}
func f() {
	defer cleanup()
}
`
	_, _, c := buildFunc(t, src, "f")
	found := false
	for _, n := range c.Exit.Nodes {
		if _, ok := n.(*ast.DeferStmt); ok {
			found = true
		}
	}
	if !found {
		t.Fatalf("deferred statement should be modelled at the exit block")
	}
}

func TestReachingDefsKill(t *testing.T) {
	src := `package cfgtest
func get() *int { return nil }
func use(q *int) {}
func f(cond bool) {
	p := get()
	use(p)
	if cond {
		p = get()
	}
	use(p)
}
`
	fd, info, c := buildFunc(t, src, "f")
	rd := BuildReachingDefs(c, info, funcEntryObjects(info, fd), nil)

	// Find the object for p.
	var pObj types.Object
	for id, obj := range info.Defs {
		if id.Name == "p" {
			pObj = obj
		}
	}
	if pObj == nil {
		t.Fatal("no object for p")
	}
	defs := rd.defsOf[pObj]
	if len(defs) != 2 {
		t.Fatalf("want 2 defs of p, got %d", len(defs))
	}

	// At the final use(p), both definitions reach (the reassignment is
	// conditional).
	fset := token.NewFileSet()
	_ = fset
	var lastUse ast.Node
	for _, b := range c.Blocks {
		for _, n := range b.Nodes {
			es, ok := n.(*ast.ExprStmt)
			if !ok {
				continue
			}
			call, ok := es.X.(*ast.CallExpr)
			if !ok {
				continue
			}
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "use" {
				lastUse = n
			}
		}
	}
	var reachCount int
	for _, b := range c.Blocks {
		rd.WalkBlock(b, func(n ast.Node, reaching bitset) {
			if n != lastUse {
				return
			}
			reachCount = 0
			for _, idx := range defs {
				if reaching.has(idx) {
					reachCount++
				}
			}
		})
	}
	if reachCount != 2 {
		t.Fatalf("want both defs of p reaching the final use, got %d", reachCount)
	}
}

func TestReachingDefsSyntheticKilledByReassign(t *testing.T) {
	src := `package cfgtest
func get() *int { return nil }
func put(q *int) {}
func use(q *int) {}
func f() {
	p := get()
	put(p)
	p = get()
	use(p)
}
`
	fd, info, c := buildFunc(t, src, "f")
	var pObj types.Object
	for id, obj := range info.Defs {
		if id.Name == "p" {
			pObj = obj
		}
	}
	// Inject a synthetic def of p at the put(p) call.
	rd := BuildReachingDefs(c, info, funcEntryObjects(info, fd), func(n ast.Node) []types.Object {
		es, ok := n.(*ast.ExprStmt)
		if !ok {
			return nil
		}
		call, ok := es.X.(*ast.CallExpr)
		if !ok {
			return nil
		}
		if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "put" {
			return []types.Object{pObj}
		}
		return nil
	})
	var synIdx = -1
	for i, d := range rd.Defs {
		if d.Synthetic {
			synIdx = i
		}
	}
	if synIdx < 0 {
		t.Fatal("no synthetic def recorded")
	}
	// At use(p), the synthetic def must be killed by the reassignment.
	reachedUse := false
	for _, b := range c.Blocks {
		rd.WalkBlock(b, func(n ast.Node, reaching bitset) {
			es, ok := n.(*ast.ExprStmt)
			if !ok {
				return
			}
			call, ok := es.X.(*ast.CallExpr)
			if !ok {
				return
			}
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "use" {
				reachedUse = true
				if reaching.has(synIdx) {
					t.Errorf("synthetic release def should be killed by reassignment before use")
				}
			}
		})
	}
	if !reachedUse {
		t.Fatal("never visited use(p)")
	}
}
