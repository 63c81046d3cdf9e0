package analysis

// Pool annotation collection for the poollife analyzer. Slab/free-list
// acquire and release functions are marked with machine-readable
// directives in their doc comments:
//
//	//pool:get   the function returns a pooled record
//	//pool:put   the function releases its first argument to the pool
//
// The markers are directive comments (no space after //, like //go:),
// so they never render in godoc. Functions carrying either marker are
// the pool implementation and are exempt from the lifecycle rules they
// define for their callers.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// hasDirective reports whether the comment group contains the given
// directive comment (exact, or followed by a free-form note).
func hasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if c.Text == directive || strings.HasPrefix(c.Text, directive+" ") {
			return true
		}
	}
	return false
}

// poolMarks indexes a package's pool directive annotations by function
// object.
type poolMarks struct {
	get map[types.Object]bool // //pool:get — returns a pooled record
	put map[types.Object]bool // //pool:put — releases its first argument
}

// poolInternal reports whether fn is part of the pool implementation
// itself (carries either marker).
func (pm *poolMarks) poolInternal(fn types.Object) bool {
	return pm.get[fn] || pm.put[fn]
}

// collectPoolMarks scans the package's function declarations for
// //pool:get and //pool:put directives.
func collectPoolMarks(pass *Pass) *poolMarks {
	pm := &poolMarks{get: map[types.Object]bool{}, put: map[types.Object]bool{}}
	for _, f := range pass.Files() {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			obj := pass.TypesInfo().Defs[fd.Name]
			if obj == nil {
				continue
			}
			if hasDirective(fd.Doc, "//pool:get") {
				pm.get[obj] = true
			}
			if hasDirective(fd.Doc, "//pool:put") {
				pm.put[obj] = true
			}
		}
	}
	return pm
}

// rootIdentObj returns the object of the identifier at the root of a
// selector/index/deref chain (ol in ol.queue[i].x), or nil when the
// chain does not bottom out in a plain identifier.
func rootIdentObj(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			if obj := info.Uses[x]; obj != nil {
				return obj
			}
			return info.Defs[x]
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// identObj resolves a bare-identifier expression to its object.
func identObj(info *types.Info, e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}

// inspectShallow walks the expressions executed as part of block node n
// itself: it skips function-literal bodies (a closure's body is not
// executed here) and, for a RangeStmt head node, descends only into the
// ranged expression (the body's statements live in their own blocks).
func inspectShallow(n ast.Node, visit func(ast.Node) bool) {
	if rs, ok := n.(*ast.RangeStmt); ok {
		inspectShallow(rs.X, visit)
		return
	}
	ast.Inspect(n, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok {
			return false
		}
		if x == nil {
			return true
		}
		return visit(x)
	})
}

// shortPos renders a position as file-basename:line for diagnostics.
func shortPos(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	name := p.Filename
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	return name + ":" + itoa(p.Line)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
