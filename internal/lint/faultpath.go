package lint

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/types/typeutil"
)

// FaultPath closes the gaps around the quarantine-or-recompute guarantee.
// Two rules:
//
//   - every recover() in a simulation package, harness or the root aurora
//     package must convert the recovered value into a typed *simfault.Fault
//     (a call into package simfault in the same function body) — a recover
//     that rebuilds an untyped error silently strips the job identity,
//     cycle and subsystem the fault taxonomy (docs/ROBUSTNESS.md) and the
//     store's persistable-fault split depend on;
//   - errors returned by the persistence and artifact writers — the
//     resultstore Write/Put pair, csv.Writer Write/WriteAll, and the obs
//     metric exporters WriteCSV/WriteJSONL/WriteChromeTrace — must not be
//     discarded with `_ =` or an ignored return. A swallowed Write error
//     turns "quarantine and recompute" into "silently never persisted";
//     a swallowed CSV error publishes a truncated artifact as complete.
//
// Deliberate discards carry //aurora:allow(fault, reason) — the harness
// runner does exactly this for store writes, because a failed persist must
// fail neither the simulated job nor the sweep, and the store already
// counts the failure in Stats.PutErrors.
var FaultPath = &analysis.Analyzer{
	Name: "faultpath",
	Doc:  "check recover-to-Fault conversion and undiscarded persistence errors",
	Run:  runFaultPath,
}

const faultTok = "fault"

// errorCheckedMethods maps method names to the package (by final import
// path segment, or full path for the standard library) whose methods must
// not have their error results discarded.
type checkedMethod struct {
	pkg     string // final segment of a module-local package, or stdlib path
	methods map[string]bool
}

var checkedMethods = []checkedMethod{
	{pkg: "resultstore", methods: map[string]bool{
		"Write": true, "Put": true,
	}},
	{pkg: "encoding/csv", methods: map[string]bool{
		"Write": true, "WriteAll": true,
	}},
	{pkg: "obs", methods: map[string]bool{
		"WriteCSV": true, "WriteJSONL": true, "WriteChromeTrace": true,
	}},
}

// faultPathPackages gates the recover-conversion rule: the packages whose
// panics the harness recovery contract owns.
func faultPathRecoverScope(pkgPath string) bool {
	return isSimPackage(pkgPath) || lastSeg(pkgPath) == "harness" || pkgPath == "aurora"
}

func runFaultPath(pass *analysis.Pass) (interface{}, error) {
	w := collectWaivers(pass)
	recoverScope := faultPathRecoverScope(pass.Pkg.Path())

	for _, f := range sourceFiles(pass) {
		inspectWithStack(f, func(n ast.Node, stack []ast.Node) {
			switch n := n.(type) {
			case *ast.CallExpr:
				if recoverScope && isRecoverCall(pass, n) {
					checkRecoverConverts(pass, w, n, stack)
				}
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					checkDiscardedError(pass, w, call, "return value is ignored")
				}
			case *ast.AssignStmt:
				checkBlankAssign(pass, w, n)
			}
		})
	}
	return nil, nil
}

func isRecoverCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok && b.Name() == "recover"
}

// checkRecoverConverts requires the innermost function enclosing a
// recover() call to also call into package simfault — the FromPanic
// conversion that keeps the fault typed.
func checkRecoverConverts(pass *analysis.Pass, w waivers, call *ast.CallExpr, stack []ast.Node) {
	body := enclosingFuncBody(stack)
	if body == nil {
		return
	}
	if bodyCallsSimfault(pass, body) {
		return
	}
	report(pass, w, call.Pos(), faultTok,
		"faultpath: recover() does not convert to *simfault.Fault; use simfault.FromPanic so the job identity and cycle survive")
}

// enclosingFuncBody returns the body of the innermost FuncDecl or FuncLit
// on the stack.
func enclosingFuncBody(stack []ast.Node) *ast.BlockStmt {
	for i := len(stack) - 1; i >= 0; i-- {
		switch fn := stack[i].(type) {
		case *ast.FuncLit:
			return fn.Body
		case *ast.FuncDecl:
			return fn.Body
		}
	}
	return nil
}

func bodyCallsSimfault(pass *analysis.Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := typeutil.StaticCallee(pass.TypesInfo, call)
		if callee != nil && callee.Pkg() != nil && lastSeg(callee.Pkg().Path()) == "simfault" {
			found = true
			return false
		}
		return true
	})
	return found
}

// calleeMethod resolves the called function or method object, including
// interface methods (which have no static callee).
func calleeMethod(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	if callee := typeutil.StaticCallee(pass.TypesInfo, call); callee != nil {
		return callee
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	fn, _ := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	return fn
}

// isCheckedErrorCall reports whether call targets one of the methods whose
// error result the analyzer protects, and returns the index of the error
// result in its signature (-1 when not applicable).
func isCheckedErrorCall(pass *analysis.Pass, call *ast.CallExpr) (errIndex int, name string, ok bool) {
	fn := calleeMethod(pass, call)
	if fn == nil || fn.Pkg() == nil {
		return -1, "", false
	}
	path := fn.Pkg().Path()
	for _, cm := range checkedMethods {
		if !cm.methods[fn.Name()] {
			continue
		}
		if path != cm.pkg && lastSeg(path) != cm.pkg {
			continue
		}
		// Module-local segments must stay module-local; "encoding/csv" is
		// matched by full path above.
		if path != cm.pkg && firstSeg(path) != firstSeg(pass.Pkg.Path()) {
			continue
		}
		sig := fn.Type().(*types.Signature)
		res := sig.Results()
		for i := 0; i < res.Len(); i++ {
			if isErrorType(res.At(i).Type()) {
				return i, fn.Name(), true
			}
		}
		return -1, "", false
	}
	return -1, "", false
}

func isErrorType(t types.Type) bool {
	n, ok := types.Unalias(t).(*types.Named)
	return ok && n.Obj().Pkg() == nil && n.Obj().Name() == "error"
}

func checkDiscardedError(pass *analysis.Pass, w waivers, call *ast.CallExpr, how string) {
	_, name, ok := isCheckedErrorCall(pass, call)
	if !ok {
		return
	}
	report(pass, w, call.Pos(), faultTok,
		"faultpath: error from "+name+" is discarded ("+how+"); handle it or waive with //aurora:allow(fault, reason)")
}

// checkBlankAssign flags `_ = store.Write(...)` and multi-assigns that park
// the error result on the blank identifier.
func checkBlankAssign(pass *analysis.Pass, w waivers, as *ast.AssignStmt) {
	// Single call on the RHS (covers both `_ = f()` and `a, _ = f()`).
	if len(as.Rhs) != 1 {
		return
	}
	call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return
	}
	errIdx, name, ok := isCheckedErrorCall(pass, call)
	if !ok {
		return
	}
	blankAt := func(i int) bool {
		if i >= len(as.Lhs) {
			return false
		}
		id, ok := as.Lhs[i].(*ast.Ident)
		return ok && id.Name == "_"
	}
	discarded := false
	if len(as.Lhs) == 1 {
		discarded = blankAt(0)
	} else {
		discarded = blankAt(errIdx)
	}
	if discarded {
		report(pass, w, call.Pos(), faultTok,
			"faultpath: error from "+name+" is discarded (assigned to _); handle it or waive with //aurora:allow(fault, reason)")
	}
}
