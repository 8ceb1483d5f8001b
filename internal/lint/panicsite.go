package lint

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/types/typeutil"
)

// PanicSite enforces the fault-isolation contract: every panic in a
// timing-model package must be one of the faultinject-registered invariant
// sites, i.e. sit in the body of an if whose condition ORs the real
// invariant check with faultinject.Fires(<site>). The harness fault
// boundary recovers such panics and turns them into per-cell faults; a
// raw panic at an unregistered site would still be recovered, but could
// never be exercised by the fault-injection test sweep, so its recovery
// path would ship untested. Construction-time validation panics that run
// before a simulation starts may be waived with //aurora:allow(panic).
var PanicSite = &analysis.Analyzer{
	Name: "panicsite",
	Doc:  "check that simulation-package panics are faultinject-gated",
	Run:  runPanicSite,
}

const panicTok = "panic"

// inspectWithStack walks root, calling fn with each node and its ancestor
// chain (outermost first, excluding n itself).
func inspectWithStack(root ast.Node, fn func(n ast.Node, stack []ast.Node)) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		fn(n, stack)
		stack = append(stack, n)
		return true
	})
}

func runPanicSite(pass *analysis.Pass) (interface{}, error) {
	if !isSimPackage(pass.Pkg.Path()) {
		return nil, nil
	}
	w := collectWaivers(pass)

	for _, f := range sourceFiles(pass) {
		inspectWithStack(f, func(n ast.Node, stack []ast.Node) {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isPanicCall(pass, call) {
				return
			}
			if !gatedByFires(pass, n, stack) {
				report(pass, w, call.Pos(), panicTok,
					"panicsite: panic is not faultinject-gated; register a site or waive construction-time validation")
			}
		})
	}
	return nil, nil
}

func isPanicCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok && b.Name() == "panic"
}

// gatedByFires reports whether some enclosing if statement both (a) holds
// the panic in its body and (b) calls faultinject.Fires in its condition.
func gatedByFires(pass *analysis.Pass, n ast.Node, stack []ast.Node) bool {
	for i, anc := range stack {
		ifs, ok := anc.(*ast.IfStmt)
		if !ok {
			continue
		}
		var child ast.Node = n
		if i+1 < len(stack) {
			child = stack[i+1]
		}
		if child != ast.Node(ifs.Body) {
			continue
		}
		if condCallsFires(pass, ifs.Cond) {
			return true
		}
	}
	return false
}

func condCallsFires(pass *analysis.Pass, cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := typeutil.StaticCallee(pass.TypesInfo, call)
		if callee != nil && callee.Name() == "Fires" &&
			callee.Pkg() != nil && lastSeg(callee.Pkg().Path()) == "faultinject" {
			found = true
			return false
		}
		return true
	})
	return found
}
