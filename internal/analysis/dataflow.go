package analysis

// The dataflow engine over the CFGs built in cfg.go: reaching
// definitions over go/types objects, on a small bitset representation.
// It is the primitive the pooled-record analyzer poollife is built on.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ---- bitsets --------------------------------------------------------

// A bitset is a fixed-capacity set of small non-negative ints.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int)      { b[i>>6] |= 1 << (i & 63) }
func (b bitset) clear(i int)    { b[i>>6] &^= 1 << (i & 63) }
func (b bitset) has(i int) bool { return b[i>>6]&(1<<(i&63)) != 0 }

func (b bitset) clone() bitset {
	c := make(bitset, len(b))
	copy(c, b)
	return c
}

// or sets b |= o.
func (b bitset) or(o bitset) {
	for i := range b {
		b[i] |= o[i]
	}
}

func (b bitset) equal(o bitset) bool {
	for i := range b {
		if b[i] != o[i] {
			return false
		}
	}
	return true
}

// ---- reaching definitions ------------------------------------------

// reversePostorder returns the blocks reachable from Entry in reverse
// postorder of a depth-first walk.
func (c *CFG) reversePostorder() []*Block {
	seen := make([]bool, len(c.Blocks))
	var post []*Block
	var walk func(*Block)
	walk = func(b *Block) {
		seen[b.Index] = true
		for _, s := range b.Succs {
			if !seen[s.Index] {
				walk(s)
			}
		}
		post = append(post, b)
	}
	walk(c.Entry)
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post
}

// A DefSite is one definition of a variable: an assignment, a short
// variable declaration, a range binding — or, when Node is nil, the
// function entry (parameters, receivers, named results). Synthetic
// marks caller-injected definitions (poollife models pool releases as
// synthetic defs of the released variable, killed by real
// reassignment exactly like ordinary reaching definitions).
type DefSite struct {
	Obj       types.Object
	Node      ast.Node
	Pos       token.Pos
	Synthetic bool
}

// ReachSets holds the solved reaching-definitions problem for one CFG:
// Defs indexed by bit position and the definitions live on entry to
// each block.
type ReachSets struct {
	Defs []DefSite
	In   []bitset

	defsOf  map[types.Object][]int // object -> def indices
	nodeGen map[ast.Node][]int     // node -> def indices generated there
}

// BuildReachingDefs solves reaching definitions for c. params seeds
// entry definitions (parameters, receiver, named results). synthetic,
// when non-nil, is consulted per top-level block node and may inject
// extra definitions of the returned objects at that node (applied
// after the node's ordinary defs).
func BuildReachingDefs(c *CFG, info *types.Info, params []types.Object, synthetic func(ast.Node) []types.Object) *ReachSets {
	r := &ReachSets{
		defsOf:  map[types.Object][]int{},
		nodeGen: map[ast.Node][]int{},
	}
	addDef := func(d DefSite) int {
		idx := len(r.Defs)
		r.Defs = append(r.Defs, d)
		r.defsOf[d.Obj] = append(r.defsOf[d.Obj], idx)
		return idx
	}
	for _, p := range params {
		addDef(DefSite{Obj: p, Pos: p.Pos()})
	}
	for _, b := range c.Blocks {
		for _, n := range b.Nodes {
			for _, obj := range nodeDefs(info, n) {
				idx := addDef(DefSite{Obj: obj, Node: n, Pos: n.Pos()})
				r.nodeGen[n] = append(r.nodeGen[n], idx)
			}
			if synthetic != nil {
				for _, obj := range synthetic(n) {
					idx := addDef(DefSite{Obj: obj, Node: n, Pos: n.Pos(), Synthetic: true})
					r.nodeGen[n] = append(r.nodeGen[n], idx)
				}
			}
		}
	}

	nd := len(r.Defs)
	r.In = make([]bitset, len(c.Blocks))
	out := make([]bitset, len(c.Blocks))
	for i := range r.In {
		r.In[i] = newBitset(nd)
		out[i] = newBitset(nd)
	}
	entryIn := newBitset(nd)
	for i := range params {
		entryIn.set(i)
	}
	r.In[c.Entry.Index] = entryIn

	order := c.reversePostorder()
	for changed := true; changed; {
		changed = false
		for _, b := range order {
			in := r.In[b.Index]
			if b != c.Entry {
				for _, p := range b.Preds {
					in.or(out[p.Index])
				}
			}
			o := in.clone()
			for _, n := range b.Nodes {
				r.transfer(o, n)
			}
			if !o.equal(out[b.Index]) {
				out[b.Index] = o
				changed = true
			}
		}
	}
	return r
}

// transfer applies node n's kills and gens to set in place.
func (r *ReachSets) transfer(set bitset, n ast.Node) {
	gen := r.nodeGen[n]
	if len(gen) == 0 {
		return
	}
	for _, idx := range gen {
		// A new definition of obj kills every other reaching def of it
		// (including synthetic ones) ...
		for _, other := range r.defsOf[r.Defs[idx].Obj] {
			set.clear(other)
		}
	}
	for _, idx := range gen {
		// ... and then reaches. Synthetic defs do not kill same-node
		// ordinary defs because both are applied here, gens last.
		set.set(idx)
	}
}

// WalkBlock visits b's nodes in execution order, calling visit with the
// definitions reaching each node (before the node's own defs apply).
// The set passed to visit is reused between calls; clone it to keep it.
func (r *ReachSets) WalkBlock(b *Block, visit func(n ast.Node, reaching bitset)) {
	cur := r.In[b.Index].clone()
	for _, n := range b.Nodes {
		visit(n, cur)
		r.transfer(cur, n)
	}
}

// funcEntryObjects returns the objects defined at fn's entry: the
// receiver, parameters, and named results. These seed reaching
// definitions so uses of unassigned parameters still resolve to a def.
func funcEntryObjects(info *types.Info, fn *ast.FuncDecl) []types.Object {
	var objs []types.Object
	addFields := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, id := range f.Names {
				if obj := info.Defs[id]; obj != nil {
					objs = append(objs, obj)
				}
			}
		}
	}
	addFields(fn.Recv)
	addFields(fn.Type.Params)
	addFields(fn.Type.Results)
	return objs
}

// nodeDefs returns the objects a top-level block node defines:
// assignment LHS identifiers, var/const declarations, range key/value
// bindings, type-switch implicits, and IncDec targets. Definitions
// inside nested function literals belong to their own function and are
// excluded.
func nodeDefs(info *types.Info, n ast.Node) []types.Object {
	var objs []types.Object
	add := func(id *ast.Ident) {
		if id == nil || id.Name == "_" {
			return
		}
		if obj := info.Defs[id]; obj != nil {
			objs = append(objs, obj)
			return
		}
		if obj := info.Uses[id]; obj != nil {
			if _, isVar := obj.(*types.Var); isVar {
				objs = append(objs, obj)
			}
		}
	}
	switch n := n.(type) {
	case *ast.AssignStmt:
		for _, lhs := range n.Lhs {
			if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
				add(id)
			}
		}
	case *ast.IncDecStmt:
		if id, ok := ast.Unparen(n.X).(*ast.Ident); ok {
			add(id)
		}
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, id := range vs.Names {
						add(id)
					}
				}
			}
		}
	case *ast.RangeStmt:
		for _, e := range []ast.Expr{n.Key, n.Value} {
			if id, ok := e.(*ast.Ident); ok {
				add(id)
			}
		}
	}
	return objs
}
