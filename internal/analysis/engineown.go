package analysis

import (
	"go/ast"
	"go/types"
)

// Engineown enforces the single-goroutine ownership contract on fields
// annotated //own:engine (free-list heads and other engine-private
// mutable state): such a field may be written only from the type's own
// methods or from functions reachable solely from the engine run loop
// (RunAt callbacks and //own:entry roots). postdiscipline keeps raw
// goroutines out of the deterministic packages syntactically; engineown
// checks the deeper property that no code path outside engine context
// mutates state the engine assumes it exclusively owns.
var Engineown = &Analyzer{
	Name:     "engineown",
	Contract: "//own:engine fields are written only from engine-context functions or the owner's methods",
	Doc: `engineown computes, over the package call graph, which functions are
reachable solely from engine context: RunAt methods and //own:entry-marked
functions are roots; a function stays in engine context only while every
caller is. Exported functions, functions whose address is taken, functions
called from closures, and functions with no in-package callers all drop out
(their callers are unknown). A write to a //own:engine field from outside
that set — and outside the owning type's own methods — is reported. Closures
are never engine context: a captured write outlives the frame that made it.
Suppress with //lint:engineown <reason>.`,
	Run: runEngineown,
}

func runEngineown(pass *Pass) {
	info := pass.TypesInfo()

	// Marked fields, with the named type that declares them.
	markedField := map[types.Object]types.Object{} // field -> owning type name
	for _, f := range pass.Files() {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				owner := info.Defs[ts.Name]
				for _, field := range st.Fields.List {
					if !hasDirective(field.Doc, "//own:engine") && !hasDirective(field.Comment, "//own:engine") {
						continue
					}
					for _, name := range field.Names {
						if obj := info.Defs[name]; obj != nil {
							markedField[obj] = owner
						}
					}
				}
			}
		}
	}
	if len(markedField) == 0 {
		return
	}

	// Function inventory and engine-context roots.
	var decls []*ast.FuncDecl
	declOf := map[types.Object]*ast.FuncDecl{}
	isEntry := map[*ast.FuncDecl]bool{}
	for _, f := range pass.Files() {
		if isTestFile(pass.Fset(), f.Pos()) {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			decls = append(decls, fd)
			if obj := info.Defs[fd.Name]; obj != nil {
				declOf[obj] = fd
			}
			if isRunAt(fd) || hasDirective(fd.Doc, "//own:entry") {
				isEntry[fd] = true
			}
		}
	}

	// Call graph: in-package callers per declaration, plus the two
	// "caller unknown" conditions — address taken (used as a value) and
	// called from inside a closure.
	callers := map[*ast.FuncDecl]map[*ast.FuncDecl]bool{}
	tainted := map[*ast.FuncDecl]bool{} // address-taken or closure-called
	for _, fd := range decls {
		var stack []ast.Node
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			if id, ok := n.(*ast.Ident); ok {
				if callee := declOf[info.Uses[id]]; callee != nil {
					if isCallName(stack, id) {
						if callInClosure(stack) {
							tainted[callee] = true
						} else {
							if callers[callee] == nil {
								callers[callee] = map[*ast.FuncDecl]bool{}
							}
							callers[callee][fd] = true
						}
					} else {
						tainted[callee] = true
					}
				}
			}
			stack = append(stack, n)
			return true
		})
	}

	// Greatest fixpoint: assume everything is engine context, then
	// demote functions whose callers cannot all be shown to be.
	engineCtx := map[*ast.FuncDecl]bool{}
	for _, fd := range decls {
		engineCtx[fd] = true
	}
	for changed := true; changed; {
		changed = false
		for _, fd := range decls {
			if !engineCtx[fd] || isEntry[fd] {
				continue
			}
			demote := tainted[fd] || ast.IsExported(fd.Name.Name) || len(callers[fd]) == 0
			for caller := range callers[fd] {
				if !engineCtx[caller] {
					demote = true
				}
			}
			if demote {
				engineCtx[fd] = false
				changed = true
			}
		}
	}

	// Report writes to marked fields from outside engine context and
	// outside the owning type's methods.
	for _, fd := range decls {
		ownerType := receiverTypeName(info, fd)
		var stack []ast.Node
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			var targets []ast.Expr
			switch s := n.(type) {
			case *ast.AssignStmt:
				targets = s.Lhs
			case *ast.IncDecStmt:
				targets = []ast.Expr{s.X}
			}
			for _, t := range targets {
				sel, ok := ast.Unparen(t).(*ast.SelectorExpr)
				if !ok {
					continue
				}
				fieldObj := info.Uses[sel.Sel]
				owner, marked := markedField[fieldObj]
				if !marked {
					continue
				}
				switch {
				case callInClosure(stack):
					pass.Reportf(t.Pos(),
						"engine-owned field %s written from a closure: closures are not engine context (move the write into a RunAt callback or an owner method)",
						types.ExprString(sel))
				case ownerType != nil && ownerType == owner:
					// The owning type's own methods manage their state.
				case engineCtx[fd]:
					// Reachable solely from the engine run loop.
				default:
					pass.Reportf(t.Pos(),
						"engine-owned field %s written outside engine context: only %s's methods or functions reachable solely from RunAt///own:entry roots may write it",
						types.ExprString(sel), owner.Name())
				}
			}
			stack = append(stack, n)
			return true
		})
	}
}

// isCallName reports whether id is the function being called: the Fun
// of a CallExpr, directly or as the selector of a method expression.
func isCallName(stack []ast.Node, id *ast.Ident) bool {
	if len(stack) == 0 {
		return false
	}
	parent := stack[len(stack)-1]
	if call, ok := parent.(*ast.CallExpr); ok {
		return ast.Unparen(call.Fun) == id
	}
	sel, ok := parent.(*ast.SelectorExpr)
	if !ok || sel.Sel != id || len(stack) < 2 {
		return false
	}
	call, ok := stack[len(stack)-2].(*ast.CallExpr)
	return ok && ast.Unparen(call.Fun) == sel
}

// callInClosure reports whether the node the stack leads to sits inside
// a function literal.
func callInClosure(stack []ast.Node) bool {
	for _, n := range stack {
		if _, ok := n.(*ast.FuncLit); ok {
			return true
		}
	}
	return false
}

// receiverTypeName returns the named type a method's receiver is
// declared on, as its type-name object (nil for plain functions).
func receiverTypeName(info *types.Info, fd *ast.FuncDecl) types.Object {
	if fd.Recv == nil || len(fd.Recv.List) != 1 {
		return nil
	}
	fn, ok := info.Defs[fd.Name].(*types.Func)
	if !ok {
		return nil
	}
	named, _ := namedReceiver(fn)
	if named == nil {
		return nil
	}
	return named.Obj()
}
