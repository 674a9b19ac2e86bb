package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// DefaultSentinelScope lists the packages whose exported sentinels must
// all be mapped by server.StatusFor: the error surfaces that reach the
// HTTP API. (Matched as path-segment suffixes, so fixtures can mirror the
// layout under their own module path.)
var DefaultSentinelScope = []string{
	"internal/core", "internal/query", "internal/storage", "internal/durable",
	"internal/timeseries",
}

// SentinelErr returns the sentinelerr analyzer. Two invariants:
//
//  1. No `==`/`!=` (or switch-case) comparison against an exported Err*
//     sentinel, anywhere in the module: wrapped errors (every public error
//     path wraps with %w) make direct comparison silently wrong, and
//     server.StatusFor depends on errors.Is semantics end to end.
//  2. Every exported Err* sentinel declared in a scope package must be
//     referenced inside <statusPkg>.<statusFunc>, so the HTTP status
//     mapping stays exhaustive as sentinels are added.
func SentinelErr(scope []string, statusPkg, statusFunc string) *Analyzer {
	return &Analyzer{
		Name: "sentinelerr",
		Doc:  "Err* sentinels must be matched with errors.Is and mapped in " + statusPkg + "." + statusFunc,
		Run: func(prog *Program, report Reporter) error {
			return runSentinelErr(prog, report, scope, statusPkg, statusFunc)
		},
	}
}

func runSentinelErr(prog *Program, report Reporter, scope []string, statusPkg, statusFunc string) error {
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			checkSentinelComparisons(pkg, f, report)
		}
	}
	checkSentinelCoverage(prog, report, scope, statusPkg, statusFunc)
	return nil
}

// isSentinel reports whether obj is an exported package-level `Err*`
// variable of an error type.
func isSentinel(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
		return false
	}
	if !strings.HasPrefix(v.Name(), "Err") || !v.Exported() {
		return false
	}
	return implementsError(v.Type())
}

func implementsError(t types.Type) bool {
	i, ok := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	return ok && types.Implements(t, i)
}

// sentinelIn resolves e to a sentinel object, through parens.
func sentinelIn(pkg *Pkg, e ast.Expr) types.Object {
	switch e := e.(type) {
	case *ast.ParenExpr:
		return sentinelIn(pkg, e.X)
	case *ast.Ident:
		if obj := pkg.Info.Uses[e]; obj != nil && isSentinel(obj) {
			return obj
		}
	case *ast.SelectorExpr:
		if obj := pkg.Info.Uses[e.Sel]; obj != nil && isSentinel(obj) {
			return obj
		}
	}
	return nil
}

func checkSentinelComparisons(pkg *Pkg, f *ast.File, report Reporter) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BinaryExpr:
			if n.Op != token.EQL && n.Op != token.NEQ {
				return true
			}
			for _, side := range []ast.Expr{n.X, n.Y} {
				if obj := sentinelIn(pkg, side); obj != nil {
					report(n.Pos(), "comparing against sentinel %s with %s; use errors.Is", sentinelName(obj), n.Op)
					return true
				}
			}
		case *ast.SwitchStmt:
			if n.Tag == nil {
				return true
			}
			if t := pkg.Info.Types[n.Tag].Type; t == nil || !implementsError(t) {
				return true
			}
			for _, c := range n.Body.List {
				cc, ok := c.(*ast.CaseClause)
				if !ok {
					continue
				}
				for _, v := range cc.List {
					if obj := sentinelIn(pkg, v); obj != nil {
						report(v.Pos(), "switch-case on sentinel %s compares with ==; use errors.Is", sentinelName(obj))
					}
				}
			}
		}
		return true
	})
}

func sentinelName(obj types.Object) string {
	if obj.Pkg() != nil {
		return obj.Pkg().Name() + "." + obj.Name()
	}
	return obj.Name()
}

// checkSentinelCoverage cross-references the sentinels declared in the
// scope packages against the identifiers referenced inside the status
// mapping function. Skipped when the status function is not part of the
// loaded program (partial lint runs).
func checkSentinelCoverage(prog *Program, report Reporter, scope []string, statusPkg, statusFunc string) {
	var fn *ast.FuncDecl
	var fnPkg *Pkg
	for _, pkg := range prog.Pkgs {
		if pkg.Name != statusPkg {
			continue
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.Name == statusFunc {
					fn, fnPkg = fd, pkg
				}
			}
		}
	}
	if fn == nil {
		return
	}

	referenced := make(map[types.Object]bool)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := fnPkg.Info.Uses[id]; obj != nil && isSentinel(obj) {
				referenced[obj] = true
			}
		}
		return true
	})

	var missing []string
	for _, pkg := range prog.Pkgs {
		if !pathMatches(pkg.Path, scope) {
			continue
		}
		scopeNames := pkg.Types.Scope().Names()
		for _, name := range scopeNames {
			obj := pkg.Types.Scope().Lookup(name)
			if !isSentinel(obj) {
				continue
			}
			found := false
			for ref := range referenced {
				// Objects from the source-checked program and from export
				// data may differ in identity; match by package path+name.
				if ref.Pkg().Path() == obj.Pkg().Path() && ref.Name() == obj.Name() {
					found = true
					break
				}
			}
			if !found {
				missing = append(missing, pkg.Types.Name()+"."+name)
			}
		}
	}
	sort.Strings(missing)
	for _, name := range missing {
		report(fn.Pos(), "sentinel %s has no errors.Is case in %s.%s; unmapped engine errors fall through to 500",
			name, statusPkg, statusFunc)
	}
}
