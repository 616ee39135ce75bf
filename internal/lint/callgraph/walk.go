package callgraph

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"proteus/internal/lint/lintutil"
	"proteus/internal/lint/loader"
)

// wallClock lists the time package functions that read or schedule
// against the wall clock. Referencing one (even without calling it,
// e.g. `cfg.Clock = time.Now`) defeats replay.
var wallClock = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
	"AfterFunc": true,
}

// globalRand lists the math/rand package-level functions backed by the
// shared process-wide source. rand.New, rand.NewSource, and rand.NewZipf
// are absent: constructing a seeded generator is exactly the idiom the
// determinism contract requires.
var globalRand = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true,
	"NormFloat64": true, "Perm": true, "Shuffle": true,
	"Seed": true, "Read": true,
}

// allocFuncs lists standard-library package functions that allocate on
// every call. The table is deliberately small and obvious: hotalloc is
// a budget check for annotated hot paths, not an escape analysis.
var allocFuncs = map[string]map[string]bool{
	"fmt": {
		"Sprintf": true, "Sprint": true, "Sprintln": true, "Errorf": true,
		"Appendf": true, "Append": true, "Appendln": true,
	},
	"strings": {
		"Join": true, "Repeat": true, "Split": true, "SplitN": true,
		"SplitAfter": true, "Fields": true, "Replace": true,
		"ReplaceAll": true, "ToUpper": true, "ToLower": true, "Map": true,
		"Clone": true, "Concat": true,
	},
	"bytes": {
		"Join": true, "Repeat": true, "Split": true, "SplitN": true,
		"Fields": true, "Clone": true, "NewBuffer": true,
		"NewBufferString": true, "NewReader": true,
	},
	"strconv": {
		"Itoa": true, "FormatInt": true, "FormatUint": true,
		"FormatFloat": true, "Quote": true, "Unquote": true,
		"AppendInt": true, "AppendUint": true, "AppendFloat": true,
		"AppendQuote": true,
	},
	"errors": {"New": true, "Join": true},
	"io":     {"ReadAll": true},
	"sort":   {}, // boxing of the any argument is caught separately
}

// walkNode performs the single shallow pass over a node's body that
// collects call edges, direct facts, lock acquisitions, and the
// source-order event sequence. Nested function literals are separate
// nodes and are skipped (lintutil.InspectShallow), except that the
// literal itself records a closure-allocation fact here.
func (p *Program) walkNode(n *Node) {
	info := n.Pkg.Info
	goCalls := make(map[*ast.CallExpr]bool)
	deferCalls := make(map[*ast.CallExpr]bool)
	calledFuns := make(map[ast.Expr]bool)
	cmpConv := make(map[*ast.CallExpr]bool)
	results := n.resultTuple()

	// markCmpConv records a conversion consumed directly as a switch
	// tag or equality operand; string(b) in that position compares the
	// bytes in place without allocating (a compiler guarantee).
	markCmpConv := func(e ast.Expr) {
		for {
			pe, ok := e.(*ast.ParenExpr)
			if !ok {
				break
			}
			e = pe.X
		}
		if c, ok := e.(*ast.CallExpr); ok {
			cmpConv[c] = true
		}
	}

	// Tentative map-order facts; discarded if the function sorts.
	var mapOrder []Fact
	sawSort := false

	// deferEnd is the end of the last defer statement walked: a blocking
	// operation before it runs at exit, so it is no SeqBlocking event.
	var deferEnd token.Pos
	addFact := func(pos token.Pos, kind FactKind, desc string) {
		n.Summary.Facts = append(n.Summary.Facts, Fact{Pos: pos, Kind: kind, Desc: desc})
		n.direct[kind] = true
		if kind == FactBlocking && pos >= deferEnd {
			n.Summary.Seq = append(n.Summary.Seq, SeqEvent{Pos: pos, Kind: SeqBlocking, Desc: desc})
		}
	}

	lintutil.InspectShallow(n.body(), func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.GoStmt:
			goCalls[node.Call] = true
		case *ast.DeferStmt:
			deferCalls[node.Call] = true
			deferEnd = node.End()
		case *ast.FuncLit:
			addFact(node.Pos(), FactAlloc, "function literal (closure allocation)")
		case *ast.SwitchStmt:
			if node.Tag != nil {
				markCmpConv(node.Tag)
			}
		case *ast.CallExpr:
			calledFuns[node.Fun] = true
			p.visitCall(n, node, goCalls[node], deferCalls[node], cmpConv[node], addFact)
		case *ast.SelectorExpr:
			// A call's own function is a fact of this node (visitCall);
			// any other reference is a Ref.
			if !calledFuns[node] {
				p.recordRef(n.Pkg, node)
			}
		case *ast.SendStmt:
			addFact(node.Pos(), FactBlocking, "channel send")
			addFact(node.Pos(), FactJoin, "channel send")
		case *ast.UnaryExpr:
			if node.Op == token.ARROW {
				addFact(node.Pos(), FactBlocking, "channel receive")
				addFact(node.Pos(), FactJoin, "channel receive")
			}
		case *ast.SelectStmt:
			addFact(node.Pos(), FactBlocking, "select")
			addFact(node.Pos(), FactJoin, "select")
		case *ast.RangeStmt:
			if f, ok := mapOrderEscape(info, node); ok {
				mapOrder = append(mapOrder, f)
			}
		case *ast.BinaryExpr:
			if node.Op == token.EQL || node.Op == token.NEQ {
				markCmpConv(node.X)
				markCmpConv(node.Y)
			}
			// Runtime string concatenation allocates; constant-folded
			// concatenation does not.
			if node.Op == token.ADD {
				if t := info.TypeOf(node); t != nil {
					if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
						if tv, ok := info.Types[node]; !ok || tv.Value == nil {
							addFact(node.Pos(), FactAlloc, "string concatenation")
						}
					}
				}
			}
		case *ast.CompositeLit:
			if t := info.TypeOf(node); t != nil {
				switch t.Underlying().(type) {
				case *types.Map:
					addFact(node.Pos(), FactAlloc, "map literal")
				case *types.Slice:
					addFact(node.Pos(), FactAlloc, "slice literal")
				}
			}
		case *ast.AssignStmt:
			boxingInAssign(info, node, addFact)
		case *ast.ValueSpec:
			boxingInValueSpec(info, node, addFact)
		case *ast.ReturnStmt:
			n.Summary.Seq = append(n.Summary.Seq, SeqEvent{Pos: node.Pos(), Kind: SeqReturn})
			boxingInReturn(info, node, results, addFact)
		}
		// Track sort usage anywhere in the function: a function that
		// sorts its output has handled map iteration order.
		if call, ok := node.(*ast.CallExpr); ok {
			if pkgPath, _, ok := lintutil.PkgFuncRef(info, call.Fun); ok && (pkgPath == "sort" || pkgPath == "slices") {
				sawSort = true
			}
		}
		return true
	})

	if !sawSort {
		for _, f := range mapOrder {
			n.Summary.Facts = append(n.Summary.Facts, f)
			n.direct[FactMapOrder] = true
		}
	}
}

// visitCall resolves one call expression: records the edge, the
// source-order event, and any facts the call implies.
func (p *Program) visitCall(n *Node, call *ast.CallExpr, isGo, isDefer, cmpConv bool, addFact func(token.Pos, FactKind, string)) {
	info := n.Pkg.Info

	// Mutex operations become lock events, not call edges.
	if recv, acquire, ok := lintutil.MutexOp(info, call); ok {
		key := p.lockKey(n, recv)
		kind := SeqUnlock
		if acquire {
			kind = SeqLock
			n.Summary.Acquires = append(n.Summary.Acquires, LockSite{Pos: call.Pos(), Key: key})
		} else if isDefer {
			kind = SeqDeferUnlock
		}
		n.Summary.Seq = append(n.Summary.Seq, SeqEvent{Pos: call.Pos(), Kind: kind, Key: key, Expr: types.ExprString(recv)})
		return
	}

	// Type conversions: flag the allocating string<->[]byte/[]rune
	// pairs; other conversions are free.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if desc, ok := allocConversion(info, call, tv.Type); ok {
			// string(b) as a switch tag or equality operand is
			// allocation-free; the byte-to-string copy is elided.
			toString := false
			if b, isBasic := tv.Type.Underlying().(*types.Basic); isBasic && b.Info()&types.IsString != 0 {
				toString = true
			}
			if !(cmpConv && toString) {
				addFact(call.Pos(), FactAlloc, desc)
			}
		}
		return
	}

	// Builtins.
	if id, ok := calleeIdent(call.Fun); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				addFact(call.Pos(), FactAlloc, "make")
			case "new":
				addFact(call.Pos(), FactAlloc, "new")
			case "append":
				addFact(call.Pos(), FactAlloc, "append (may grow)")
			case "close":
				addFact(call.Pos(), FactJoin, "channel close")
			}
			return
		}
	}

	// Package-level function references: stdlib facts or module edges.
	if kind, desc, ok := nondeterministic(info, call.Fun); ok {
		addFact(call.Pos(), kind, desc)
	}
	if pkgPath, name, ok := lintutil.PkgFuncRef(info, call.Fun); ok {
		if byName, ok := allocFuncs[pkgPath]; ok && byName[name] {
			addFact(call.Pos(), FactAlloc, pkgPath+"."+name)
		}
	}
	if desc, ok := lintutil.BlockingCall(info, call); ok {
		addFact(call.Pos(), FactBlocking, desc)
		if desc == "sync.WaitGroup.Wait" {
			addFact(call.Pos(), FactJoin, desc)
		}
	}
	if recv, name, ok := lintutil.MethodCall(info, call); ok {
		// Context.Done/Err participate in cancellation protocols.
		if name == "Done" || name == "Err" {
			if t := info.TypeOf(recv); t != nil &&
				lintutil.NamedPkgPath(t) == "context" && lintutil.NamedName(t) == "Context" {
				addFact(call.Pos(), FactJoin, "context.Context."+name)
			}
		}
		if name == "Done" {
			if t := info.TypeOf(recv); lintutil.NamedPkgPath(t) == "sync" && lintutil.NamedName(t) == "WaitGroup" {
				addFact(call.Pos(), FactJoin, "sync.WaitGroup.Done")
			}
		}
	}

	boxingInArgs(info, call, addFact)

	edge := p.resolveEdge(n, call, isGo, isDefer)
	if edge != nil {
		n.Calls = append(n.Calls, edge)
		if !isGo && !isDefer {
			n.Summary.Seq = append(n.Summary.Seq, SeqEvent{Pos: call.Pos(), Kind: SeqCall, Edge: edge})
		}
	}
}

// nondeterministic classifies a reference to a wall-clock or
// global-rand function, describing it as "time.Now" or "rand.Intn".
func nondeterministic(info *types.Info, e ast.Expr) (FactKind, string, bool) {
	pkgPath, name, ok := lintutil.PkgFuncRef(info, e)
	switch {
	case !ok:
	case pkgPath == "time" && wallClock[name]:
		return FactWallClock, "time." + name, true
	case pkgPath == "math/rand" && globalRand[name]:
		return FactGlobalRand, "rand." + name, true
	}
	return 0, "", false
}

// recordRef records sel as a Ref when it names a wall-clock or
// global-rand function.
func (p *Program) recordRef(pkg *loader.Package, sel *ast.SelectorExpr) {
	if kind, desc, ok := nondeterministic(pkg.Info, sel); ok {
		p.Refs = append(p.Refs, Ref{Pkg: pkg.Path, Fact: Fact{Pos: sel.Pos(), Kind: kind, Desc: desc}})
	}
}

// calleeIdent unwraps parens and generic instantiation indexes to the
// base identifier of a call's function expression.
func calleeIdent(fun ast.Expr) (*ast.Ident, bool) {
	for {
		switch e := fun.(type) {
		case *ast.ParenExpr:
			fun = e.X
		case *ast.IndexExpr:
			fun = e.X
		case *ast.IndexListExpr:
			fun = e.X
		case *ast.Ident:
			return e, true
		default:
			return nil, false
		}
	}
}

// calleeSelector likewise unwraps to a selector expression.
func calleeSelector(fun ast.Expr) (*ast.SelectorExpr, bool) {
	for {
		switch e := fun.(type) {
		case *ast.ParenExpr:
			fun = e.X
		case *ast.IndexExpr:
			fun = e.X
		case *ast.IndexListExpr:
			fun = e.X
		case *ast.SelectorExpr:
			return e, true
		default:
			return nil, false
		}
	}
}

// resolveEdge resolves a call expression's callees. Nil means the call
// carries no interprocedural information (stdlib static call).
func (p *Program) resolveEdge(n *Node, call *ast.CallExpr, isGo, isDefer bool) *Edge {
	info := n.Pkg.Info
	edge := &Edge{Pos: call.Pos(), Call: call, Go: isGo, Deferred: isDefer}

	// Immediately-invoked (or spawned) function literal.
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		if target := p.byLit[lit]; target != nil {
			edge.Callees = []*Node{target}
			return edge
		}
		edge.Dynamic = true
		return edge
	}

	// Plain identifier: package function or function-typed variable.
	if id, ok := calleeIdent(call.Fun); ok {
		switch obj := info.Uses[id].(type) {
		case *types.Func:
			if target := p.NodeOf(obj); target != nil {
				edge.Callees = []*Node{target}
				return edge
			}
			return nil // stdlib or bodyless declaration
		case *types.Var:
			edge.Dynamic = true // call through a function value
			return edge
		}
		return nil
	}

	sel, ok := calleeSelector(call.Fun)
	if !ok {
		// f()() and friends: a call of a call's result.
		edge.Dynamic = true
		return edge
	}

	// Qualified package function: pkg.F(...).
	if id, ok := sel.X.(*ast.Ident); ok {
		if _, isPkg := info.Uses[id].(*types.PkgName); isPkg {
			switch obj := info.Uses[sel.Sel].(type) {
			case *types.Func:
				if target := p.NodeOf(obj); target != nil {
					edge.Callees = []*Node{target}
					return edge
				}
				return nil
			case *types.Var:
				edge.Dynamic = true // package-level function variable
				return edge
			}
			return nil
		}
	}

	selection, ok := info.Selections[sel]
	if !ok {
		// Selector without a selection entry: qualified reference
		// already handled above, anything else is information-free.
		return nil
	}
	switch selection.Kind() {
	case types.FieldVal:
		edge.Dynamic = true // call through a function-typed field
		return edge
	case types.MethodExpr:
		// T.M(recv, ...): resolves statically like a direct call.
		if obj, ok := selection.Obj().(*types.Func); ok {
			if target := p.NodeOf(obj); target != nil {
				edge.Callees = []*Node{target}
				return edge
			}
		}
		return nil
	}

	// Method value call: recv.M(...).
	obj, ok := selection.Obj().(*types.Func)
	if !ok {
		edge.Dynamic = true
		return edge
	}
	recvType := selection.Recv()
	if iface, ok := recvType.Underlying().(*types.Interface); ok {
		edge.Iface = true
		if named, ok := recvType.(*types.Named); ok && named.Obj().Pkg() != nil {
			edge.IfacePkg = named.Obj().Pkg().Path()
		}
		edge.Callees = p.chaCandidates(obj.Name(), iface)
		if len(edge.Callees) == 0 {
			// No module implementation: the dynamic target is outside
			// the program (or nonexistent); treat as information-free.
			return nil
		}
		return edge
	}
	if target := p.NodeOf(obj); target != nil {
		edge.Callees = []*Node{target}
		return edge
	}
	return nil // stdlib method
}

// chaCandidates returns every module method named name whose receiver
// type (or its pointer) implements iface.
func (p *Program) chaCandidates(name string, iface *types.Interface) []*Node {
	var out []*Node
	for _, m := range p.methods[name] {
		sig, ok := m.Obj.Type().(*types.Signature)
		if !ok || sig.Recv() == nil {
			continue
		}
		recv := sig.Recv().Type()
		if types.Implements(recv, iface) {
			out = append(out, m)
			continue
		}
		if _, isPtr := recv.(*types.Pointer); !isPtr {
			if types.Implements(types.NewPointer(recv), iface) {
				out = append(out, m)
			}
		}
	}
	return out
}

// lockKey canonicalizes a mutex expression to an instance-insensitive
// key. Struct fields key on the owning named type
// ("transition.Machine.prov"), package-level variables on the package
// ("cache.initMu"), and locals/parameters on the enclosing function
// (they cannot participate in cross-function ordering).
func (p *Program) lockKey(n *Node, recv ast.Expr) string {
	info := n.Pkg.Info
	switch e := recv.(type) {
	case *ast.SelectorExpr:
		if t := info.TypeOf(e.X); t != nil {
			base := lintutil.Deref(t)
			if named, ok := base.(*types.Named); ok && named.Obj().Pkg() != nil {
				return fmt.Sprintf("%s.%s.%s",
					pkgBase(named.Obj().Pkg().Path()), named.Obj().Name(), e.Sel.Name)
			}
		}
		// Qualified package-level var: pkg.Mu.
		if id, ok := e.X.(*ast.Ident); ok {
			if pn, ok := info.Uses[id].(*types.PkgName); ok {
				return fmt.Sprintf("%s.%s", pkgBase(pn.Imported().Path()), e.Sel.Name)
			}
		}
	case *ast.Ident:
		if obj := info.ObjectOf(e); obj != nil {
			if v, ok := obj.(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				return fmt.Sprintf("%s.%s", pkgBase(v.Pkg().Path()), e.Name)
			}
		}
	}
	// Local, parameter, or unrecognized shape: scope to this function.
	return fmt.Sprintf("%s:%s", n.Name, types.ExprString(recv))
}

// mapOrderEscape reports whether a range over a map appends into a
// slice (iteration order escaping into data), returning a tentative
// fact. Counting, summing, or rebuilding a map are order-insensitive
// and not flagged.
func mapOrderEscape(info *types.Info, rng *ast.RangeStmt) (Fact, bool) {
	t := info.TypeOf(rng.X)
	if t == nil {
		return Fact{}, false
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return Fact{}, false
	}
	found := Fact{}
	ok := false
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		call, isCall := n.(*ast.CallExpr)
		if !isCall || ok {
			return !ok
		}
		if id, isID := call.Fun.(*ast.Ident); isID {
			if b, isB := info.Uses[id].(*types.Builtin); isB && b.Name() == "append" {
				found = Fact{
					Pos:  call.Pos(),
					Kind: FactMapOrder,
					Desc: "map iteration order escapes into a slice (append inside range over map)",
				}
				ok = true
				return false
			}
		}
		return true
	})
	return found, ok
}

// allocConversion reports whether a conversion allocates: the
// string<->[]byte and string<->[]rune pairs copy their operand.
func allocConversion(info *types.Info, call *ast.CallExpr, target types.Type) (string, bool) {
	if len(call.Args) != 1 {
		return "", false
	}
	src := info.TypeOf(call.Args[0])
	if src == nil {
		return "", false
	}
	tDesc, tOK := stringOrByteSlice(target)
	sDesc, sOK := stringOrByteSlice(src)
	if tOK && sOK && tDesc != sDesc {
		return fmt.Sprintf("%s(%s) conversion copies", tDesc, sDesc), true
	}
	return "", false
}

// stringOrByteSlice classifies t as "string", "[]byte", or "[]rune".
func stringOrByteSlice(t types.Type) (string, bool) {
	switch u := t.Underlying().(type) {
	case *types.Basic:
		if u.Info()&types.IsString != 0 {
			return "string", true
		}
	case *types.Slice:
		if b, ok := u.Elem().Underlying().(*types.Basic); ok {
			switch b.Kind() {
			case types.Uint8: // byte
				return "[]byte", true
			case types.Int32: // rune
				return "[]rune", true
			}
		}
	}
	return "", false
}

// isPointerShaped reports whether converting t to an interface is
// allocation-free (the value is a single pointer word).
func isPointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

// boxes reports whether assigning an expression of type src to a
// destination of type dst boxes a non-pointer-shaped value into an
// interface (one heap allocation).
func boxes(dst, src types.Type) bool {
	if dst == nil || src == nil {
		return false
	}
	if _, ok := dst.Underlying().(*types.Interface); !ok {
		return false
	}
	if _, ok := src.Underlying().(*types.Interface); ok {
		return false // interface-to-interface: no allocation
	}
	if b, ok := src.(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return false
	}
	return !isPointerShaped(src)
}

// boxingInArgs flags the first argument boxed into an interface
// parameter at a call site.
func boxingInArgs(info *types.Info, call *ast.CallExpr, addFact func(token.Pos, FactKind, string)) {
	tv, ok := info.Types[call.Fun]
	if !ok || !tv.IsValue() || tv.Type == nil {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	if params == nil {
		return
	}
	if call.Ellipsis.IsValid() {
		return // s... spreads an existing slice; no per-element boxing here
	}
	for i, arg := range call.Args {
		var paramType types.Type
		if sig.Variadic() && i >= params.Len()-1 {
			if s, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				paramType = s.Elem()
			}
		} else if i < params.Len() {
			paramType = params.At(i).Type()
		}
		if boxes(paramType, info.TypeOf(arg)) {
			addFact(arg.Pos(), FactAlloc, "interface boxing at call argument")
			return
		}
	}
}

// boxingInAssign flags values boxed into interface-typed destinations.
func boxingInAssign(info *types.Info, as *ast.AssignStmt, addFact func(token.Pos, FactKind, string)) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i := range as.Lhs {
		if id, ok := as.Lhs[i].(*ast.Ident); ok && id.Name == "_" {
			continue
		}
		if boxes(info.TypeOf(as.Lhs[i]), info.TypeOf(as.Rhs[i])) {
			addFact(as.Rhs[i].Pos(), FactAlloc, "interface boxing at assignment")
			return
		}
	}
}

// boxingInValueSpec flags var declarations that box.
func boxingInValueSpec(info *types.Info, spec *ast.ValueSpec, addFact func(token.Pos, FactKind, string)) {
	if len(spec.Names) != len(spec.Values) {
		return
	}
	for i, name := range spec.Names {
		obj := info.ObjectOf(name)
		if obj == nil {
			continue
		}
		if boxes(obj.Type(), info.TypeOf(spec.Values[i])) {
			addFact(spec.Values[i].Pos(), FactAlloc, "interface boxing at declaration")
			return
		}
	}
}

// boxingInReturn flags concrete values boxed into interface results.
func boxingInReturn(info *types.Info, ret *ast.ReturnStmt, results *types.Tuple, addFact func(token.Pos, FactKind, string)) {
	if results == nil || len(ret.Results) != results.Len() {
		return
	}
	for i, res := range ret.Results {
		if boxes(results.At(i).Type(), info.TypeOf(res)) {
			addFact(res.Pos(), FactAlloc, "interface boxing at return")
			return
		}
	}
}
