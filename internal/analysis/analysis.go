// Package analysis is nestlint: a static-analysis suite that
// mechanically enforces the simulator's determinism, zero-overhead and
// concurrency contracts (see docs/ANALYSIS.md).
//
// The suite is framework-compatible in spirit with
// golang.org/x/tools/go/analysis but is built purely on the standard
// library (go/ast, go/types, go/importer) so it works in offline
// builds: packages are loaded through `go list -export -deps -json`
// and type-checked against the gc export data the build cache already
// holds. Each Analyzer inspects one type-checked package at a time and
// reports Diagnostics; intentional, documented deviations are
// suppressed with `//lint:<key> <justification>` comments on the
// offending line or the line above it.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one contract check.
type Analyzer struct {
	// Name identifies the analyzer in output and in `//lint:<Name>`
	// suppression comments.
	Name string
	// Doc is a one-paragraph description of the contract enforced.
	Doc string
	// Contract is the one-line summary used by -list and docs.
	Contract string
	// Run inspects pass.Pkg and reports findings through pass.Report*.
	Run func(*Pass)
}

// A Pass carries one analyzer's run over one package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	diags    *[]Diagnostic
}

// A Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string         `json:"analyzer"`
	Pos      token.Position `json:"pos"`
	Message  string         `json:"message"`
}

// Fset returns the file set positions resolve against.
func (p *Pass) Fset() *token.FileSet { return p.Pkg.Fset }

// Files returns the package's parsed syntax trees.
func (p *Pass) Files() []*ast.File { return p.Pkg.Files }

// TypesInfo returns the package's type-checker results.
func (p *Pass) TypesInfo() *types.Info { return p.Pkg.Info }

// Path returns the package's import path (possibly a fixture path in
// analyzer tests; scope checks use prefix matching on purpose).
func (p *Pass) Path() string { return p.Pkg.Path }

// Reportf records a finding at pos unless an active suppression
// comment covers it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	msg := fmt.Sprintf(format, args...)
	if s := p.Pkg.suppressionAt(p.Analyzer.Name, position); s != nil {
		if s.Reason != "" {
			s.Used = true
			return
		}
		// A reasonless allowlist comment is inert: the contract wants
		// every deviation documented, so the finding still fires, with
		// a hint about why the comment did not silence it.
		msg += fmt.Sprintf(" (//lint:%s needs a justification after the key to suppress)", p.Analyzer.Name)
	}
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      position,
		Message:  msg,
	})
}

// A Suppression is one parsed `//lint:key justification` comment.
type Suppression struct {
	Keys   []string
	Reason string
	Line   int
	File   string
	Used   bool
}

// parseSuppressions scans a file's comments for //lint: markers. A
// comment suppresses matching diagnostics on its own line (trailing
// comment) or the line directly below it (leading comment).
func parseSuppressions(fset *token.FileSet, f *ast.File) []*Suppression {
	var out []*Suppression
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text, ok := strings.CutPrefix(c.Text, "//lint:")
			if !ok {
				continue
			}
			keys, reason, _ := strings.Cut(text, " ")
			pos := fset.Position(c.Slash)
			out = append(out, &Suppression{
				Keys:   strings.Split(keys, ","),
				Reason: strings.TrimSpace(reason),
				Line:   pos.Line,
				File:   pos.Filename,
			})
		}
	}
	return out
}

// suppressionAliases maps the contract-named spellings from
// docs/ANALYSIS.md onto analyzer names, so //lint:wallclock reads
// naturally at a watchdog timer while still keying off the simtime
// analyzer.
var suppressionAliases = map[string]string{
	"wallclock": "simtime",
	"rand":      "detrand",
	"goroutine": "postdiscipline",
}

// suppressionAt returns the suppression covering (analyzer, position),
// preferring one with a justification.
func (pkg *Package) suppressionAt(analyzer string, pos token.Position) *Suppression {
	var found *Suppression
	for _, s := range pkg.Suppressions {
		if s.File != pos.Filename {
			continue
		}
		if s.Line != pos.Line && s.Line != pos.Line-1 {
			continue
		}
		for _, k := range s.Keys {
			if k == analyzer || suppressionAliases[k] == analyzer {
				if s.Reason != "" {
					return s
				}
				found = s
			}
		}
	}
	return found
}

// RunAnalyzers applies every analyzer to every package and returns the
// findings sorted by position. Files named *_test.go are never
// analyzed: the contracts cover shipped simulator code, while tests
// legitimately use wall clocks, goroutines and seeded math/rand.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Pkg: pkg, diags: &diags}
			a.Run(pass)
		}
	}
	sort.SliceStable(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// UnusedDirectiveAnalyzer is the pseudo-analyzer name carried by
// diagnostics from UnusedDirectives, so they sort and render uniformly
// with real findings.
const UnusedDirectiveAnalyzer = "unused-directive"

// UnusedDirectives reports every //lint: comment that suppressed
// nothing during a preceding RunAnalyzers pass over pkgs: one
// diagnostic per comment, at the comment's own file:line, sorted like
// analyzer findings. A suppression that outlives the finding it
// documented is stale — its justification now asserts something the
// code no longer does — so it must be deleted rather than quietly
// retained. Reasonless //lint: comments are inert by design (Reportf
// refuses them) and are reported here too: whatever they were meant to
// cover, they do nothing.
func UnusedDirectives(pkgs []*Package) []Diagnostic {
	seen := map[string]bool{}
	var out []Diagnostic
	for _, pkg := range pkgs {
		for _, s := range pkg.Suppressions {
			if s.Used {
				continue
			}
			key := fmt.Sprintf("%s:%d", s.File, s.Line)
			if seen[key] {
				continue
			}
			seen[key] = true
			msg := fmt.Sprintf("stale //lint:%s comment: suppresses nothing; delete it", strings.Join(s.Keys, ","))
			if s.Reason == "" {
				msg = fmt.Sprintf("inert //lint:%s comment: it has no justification and suppresses nothing; delete it or add a reason", strings.Join(s.Keys, ","))
			}
			out = append(out, Diagnostic{
				Analyzer: UnusedDirectiveAnalyzer,
				Pos:      token.Position{Filename: s.File, Line: s.Line, Column: 1},
				Message:  msg,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos.Filename != out[j].Pos.Filename {
			return out[i].Pos.Filename < out[j].Pos.Filename
		}
		return out[i].Pos.Line < out[j].Pos.Line
	})
	return out
}

// ---- shared AST/type helpers used by several analyzers --------------

// isTestFile reports whether the file holding pos is a _test.go file.
func isTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}

// inspectWithStack walks each non-test file, calling fn with every node
// and the stack of its ancestors (outermost first, excluding n itself).
func (p *Pass) inspectWithStack(fn func(n ast.Node, stack []ast.Node) bool) {
	for _, f := range p.Files() {
		if isTestFile(p.Fset(), f.Pos()) {
			continue
		}
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			descend := fn(n, stack)
			if descend {
				stack = append(stack, n)
			}
			return descend
		})
	}
}

// pkgFuncCall reports whether sel is a qualified reference to a
// package-level object (pkgpath, name), e.g. time.Now or rand.Intn.
func pkgFuncCall(info *types.Info, sel *ast.SelectorExpr) (pkgPath, name string, ok bool) {
	id, isIdent := sel.X.(*ast.Ident)
	if !isIdent {
		return "", "", false
	}
	pn, isPkg := info.Uses[id].(*types.PkgName)
	if !isPkg {
		return "", "", false
	}
	return pn.Imported().Path(), sel.Sel.Name, true
}

// methodCallee returns the *types.Func a call expression invokes, or
// nil when the call is not a resolved function/method call (e.g. a
// conversion or a call through a function-typed variable).
func methodCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// namedReceiver returns the receiver's named type (unwrapping one
// pointer) and whether the receiver is a pointer, for a method object.
func namedReceiver(fn *types.Func) (*types.Named, bool) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil, false
	}
	t := sig.Recv().Type()
	ptr := false
	if pt, isPtr := t.(*types.Pointer); isPtr {
		ptr = true
		t = pt.Elem()
	}
	named, _ := t.(*types.Named)
	return named, ptr
}

// isMethodOn reports whether fn is a method named name declared on the
// named type pkgPath.typeName (pointer or value receiver).
func isMethodOn(fn *types.Func, pkgPath, typeName, name string) bool {
	if fn == nil || fn.Name() != name || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath {
		return false
	}
	named, _ := namedReceiver(fn)
	return named != nil && named.Obj().Name() == typeName
}
