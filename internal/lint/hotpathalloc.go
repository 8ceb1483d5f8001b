package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/types/typeutil"
)

// HotPathAlloc enforces the zero-allocation cycle loop. Functions annotated
// //aurora:hotpath must contain none of the constructs that made the
// pre-PR-3 loop allocate — escaping closures, map/slice literals, &T{}
// literals, make/new, append growth, interface boxing at call sites, fmt,
// string concatenation or conversion, defer, go — and every static call
// they make to a module-local function must target another annotated
// (hence equally checked) hot-path function. It also bans integer division
// and remainder by a non-constant divisor there: a ring index wraps with a
// compare and a power-of-two size is a mask, so the loop never pays for a
// hardware divide. Annotations on callees in imported packages are carried
// across package boundaries as analysis facts, so the whole per-cycle call
// graph is covered without whole-program analysis. Dynamic calls (interface
// methods, func values) cannot be resolved statically and are not checked;
// the benchmark guard TestCycleLoopZeroAlloc remains the backstop for those.
var HotPathAlloc = &analysis.Analyzer{
	Name:      "hotpathalloc",
	Doc:       "check //aurora:hotpath functions for allocation-inducing constructs and integer division",
	Run:       runHotPathAlloc,
	FactTypes: []analysis.Fact{new(isHotPath)},
}

// isHotPath marks a function object as //aurora:hotpath-annotated, making
// the annotation visible to dependent packages' passes.
type isHotPath struct{}

func (*isHotPath) AFact()         {}
func (*isHotPath) String() string { return "hotpath" }

const allocTok = "alloc"

func runHotPathAlloc(pass *analysis.Pass) (interface{}, error) {
	w := collectWaivers(pass)

	// Pass 1: find every annotated function and export the fact before any
	// body is checked, so intra-package calls in either direction resolve.
	hot := map[*types.Func]bool{}
	var bodies []*ast.FuncDecl
	for _, f := range sourceFiles(pass) {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || !hasAnnotation(fd.Doc, HotPathAnnotation) {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			hot[fn] = true
			pass.ExportObjectFact(fn, new(isHotPath))
			if fd.Body != nil {
				bodies = append(bodies, fd)
			}
		}
	}

	c := &hotChecker{pass: pass, w: w, hot: hot}
	for _, fd := range bodies {
		c.checkBody(fd.Body)
	}
	return nil, nil
}

type hotChecker struct {
	pass *analysis.Pass
	w    waivers
	hot  map[*types.Func]bool
}

func (c *hotChecker) report(pos token.Pos, format string, args ...interface{}) {
	report(c.pass, c.w, pos, allocTok, fmt.Sprintf(format, args...))
}

func (c *hotChecker) checkBody(body ast.Node) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			c.report(n.Pos(), "hot path: closure literal allocates")
			return false // its body is not part of the checked hot path
		case *ast.DeferStmt:
			c.report(n.Pos(), "hot path: defer is banned")
		case *ast.GoStmt:
			c.report(n.Pos(), "hot path: go statement is banned")
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := n.X.(*ast.CompositeLit); ok {
					c.report(n.Pos(), "hot path: &composite literal escapes to the heap")
				}
			}
		case *ast.CompositeLit:
			switch c.typeOf(n).Underlying().(type) {
			case *types.Map:
				c.report(n.Pos(), "hot path: map literal allocates")
			case *types.Slice:
				c.report(n.Pos(), "hot path: slice literal allocates")
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && !c.isConst(n) && isString(c.typeOf(n)) {
				c.report(n.Pos(), "hot path: string concatenation allocates")
			}
			if n.Op == token.QUO || n.Op == token.REM {
				c.checkDivision(n.OpPos, n.Op, n.X, n.Y)
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isString(c.typeOf(n.Lhs[0])) {
				c.report(n.Pos(), "hot path: string concatenation allocates")
			}
			if (n.Tok == token.QUO_ASSIGN || n.Tok == token.REM_ASSIGN) && len(n.Lhs) == 1 {
				c.checkDivision(n.TokPos, n.Tok, n.Lhs[0], n.Rhs[0])
			}
		case *ast.CallExpr:
			c.checkCall(n)
		}
		return true
	})
}

// checkDivision reports an integer x/y or x%y whose divisor is not a
// constant. Float division is allowed. No waiver covers it: a hot divide
// can always become a compare, a mask, or a call out of the hot path.
func (c *hotChecker) checkDivision(pos token.Pos, op token.Token, x, y ast.Expr) {
	if c.isConst(y) {
		return
	}
	if b, ok := c.typeOf(x).Underlying().(*types.Basic); ok && b.Info()&types.IsInteger != 0 {
		c.pass.Reportf(pos, "hot path: integer %s by a non-constant divisor", op)
	}
}

func (c *hotChecker) typeOf(e ast.Expr) types.Type {
	if t := c.pass.TypesInfo.TypeOf(e); t != nil {
		return t
	}
	return types.Typ[types.Invalid]
}

func (c *hotChecker) isConst(e ast.Expr) bool {
	tv, ok := c.pass.TypesInfo.Types[e]
	return ok && tv.Value != nil
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// pointerShaped reports whether converting t to an interface stores the
// value directly in the interface word, i.e. without allocating.
func pointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return t.Underlying().(*types.Basic).Kind() == types.UnsafePointer
	}
	return false
}

func (c *hotChecker) checkCall(call *ast.CallExpr) {
	tv, ok := c.pass.TypesInfo.Types[call.Fun]
	if ok && tv.IsType() {
		c.checkConversion(call, tv.Type)
		return
	}
	if ok && tv.IsBuiltin() {
		c.checkBuiltin(call)
		return
	}

	callee := typeutil.StaticCallee(c.pass.TypesInfo, call)
	if callee != nil {
		callee = callee.Origin()
	}
	if callee != nil && callee.Pkg() != nil && callee.Pkg().Path() == "fmt" {
		// One diagnostic for the whole call; skip the per-argument boxing
		// reports its interface parameters would otherwise add.
		c.report(call.Pos(), "hot path: call into fmt")
		return
	}

	// Interface boxing at the call site: a non-constant concrete value
	// whose representation does not fit the interface word must be heap-
	// boxed to become an interface argument.
	if sig, ok := c.typeOf(call.Fun).Underlying().(*types.Signature); ok {
		c.checkBoxing(call, sig)
	}

	if callee == nil {
		return // dynamic: interface method or func value
	}
	pkg := callee.Pkg()
	if pkg == nil || pkg == types.Unsafe {
		return
	}
	if pkg == c.pass.Pkg {
		if !c.hot[callee] {
			c.report(call.Pos(), "hot path: call to non-hotpath function %s", callee.FullName())
		}
		return
	}
	if firstSeg(pkg.Path()) == firstSeg(c.pass.Pkg.Path()) {
		if !c.pass.ImportObjectFact(callee, new(isHotPath)) {
			c.report(call.Pos(), "hot path: call to non-hotpath function %s", callee.FullName())
		}
	}
	// Calls out of the module (standard library, except fmt above) are
	// allowed; the constructs they would be used for are caught directly.
}

func (c *hotChecker) checkBoxing(call *ast.CallExpr, sig *types.Signature) {
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // forwarding an existing slice: no per-element boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if !types.IsInterface(pt) {
			continue
		}
		at := c.typeOf(arg)
		if types.IsInterface(at) || c.isConst(arg) || pointerShaped(at) || at == types.Typ[types.Invalid] {
			continue
		}
		if b, ok := at.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
			continue
		}
		c.report(arg.Pos(), "hot path: %s boxes into interface %s", at, pt)
	}
}

func (c *hotChecker) checkBuiltin(call *ast.CallExpr) {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return
	}
	switch id.Name {
	case "append":
		c.report(call.Pos(), "hot path: append may grow its backing array")
	case "new":
		c.report(call.Pos(), "hot path: new allocates")
	case "make":
		c.report(call.Pos(), "hot path: make allocates")
	}
}

func (c *hotChecker) checkConversion(call *ast.CallExpr, to types.Type) {
	if len(call.Args) != 1 {
		return
	}
	arg := call.Args[0]
	at := c.typeOf(arg)
	if types.IsInterface(to) {
		if !types.IsInterface(at) && !c.isConst(arg) && !pointerShaped(at) {
			c.report(arg.Pos(), "hot path: %s boxes into interface %s", at, to)
		}
		return
	}
	if c.isConst(arg) {
		return
	}
	fromStr, toStr := isString(at), isString(to)
	_, fromSlice := at.Underlying().(*types.Slice)
	_, toSlice := to.Underlying().(*types.Slice)
	if (fromStr && toSlice) || (fromSlice && toStr) {
		c.report(call.Pos(), "hot path: string conversion allocates")
	}
}
