// Package callgraph builds a whole-program call graph over the
// packages loaded by internal/lint/loader, with one summary of
// analysis-relevant facts per function. It is the engine behind the
// interprocedural proteuslint analyzers (transdeterminism, lockorder,
// goleak, hotalloc): each of those is a thin pass over the resolved
// Program rather than an AST walk of its own.
//
// Call resolution is CHA-style (class hierarchy analysis):
//
//   - Direct calls to module functions and methods resolve to exactly
//     one callee, including instantiated generics (resolved through
//     types.Func.Origin, so Set[int].Add and Set[string].Add share the
//     generic declaration's node).
//   - Interface method calls resolve conservatively to every module
//     method whose receiver type implements the interface.
//   - Calls through function values (and method values) are recorded
//     as Dynamic edges with no callees; analyzers treat them as
//     information-free rather than guessing.
//   - Calls into the standard library produce no edges; their effects
//     are captured as per-function facts from curated tables (wall
//     clock, global rand, blocking I/O, allocation).
//
// Facts propagate bottom-up to a transitive closure by fixpoint
// iteration (the graph is small; no SCC condensation is needed), and
// FactPath/LockPath reconstruct shortest evidence chains on demand so
// diagnostics can print how a hot function reaches an allocation or a
// lock acquisition.
package callgraph

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"proteus/internal/lint/loader"
)

// HotpathDirective marks a function whose doc comment opts it into the
// hotalloc allocation budget: //lint:hotpath [description].
const HotpathDirective = "//lint:hotpath"

// FactKind classifies one analysis-relevant behaviour of a function.
type FactKind int

const (
	// FactWallClock: reads the wall clock (time.Now, time.Sleep, ...).
	FactWallClock FactKind = iota
	// FactGlobalRand: draws from the process-wide math/rand source.
	FactGlobalRand
	// FactMapOrder: iteration order of a Go map escapes into a slice
	// that is not subsequently sorted.
	FactMapOrder
	// FactAlloc: a static allocation site (make, append growth,
	// string<->[]byte conversion, closure, interface boxing, ...).
	FactAlloc
	// FactBlocking: can block indefinitely (network I/O, channel
	// operations, WaitGroup.Wait, time.Sleep).
	FactBlocking
	// FactJoin: participates in a goroutine join or cancellation
	// protocol (WaitGroup.Done, any channel operation or close,
	// Context.Done/Err).
	FactJoin

	numFactKinds
)

// String names the fact kind for diagnostics.
func (k FactKind) String() string {
	switch k {
	case FactWallClock:
		return "wall-clock"
	case FactGlobalRand:
		return "global-rand"
	case FactMapOrder:
		return "map-order"
	case FactAlloc:
		return "allocation"
	case FactBlocking:
		return "blocking"
	case FactJoin:
		return "join"
	}
	return fmt.Sprintf("FactKind(%d)", int(k))
}

// Fact is one directly-observed behaviour at a position.
type Fact struct {
	Pos  token.Pos
	Kind FactKind
	Desc string // human description, e.g. "time.Now" or "append (may grow)"
}

// LockSite is one direct mutex acquisition.
type LockSite struct {
	Pos token.Pos
	Key string // canonical lock key, e.g. "transition.Machine.prov"
}

// SeqKind classifies one event in a function's linear source-order
// replay: Lock/Unlock/return/blocking events ordered by position, with
// no control-flow graph.
type SeqKind int

const (
	SeqLock SeqKind = iota
	SeqUnlock
	SeqDeferUnlock
	SeqCall
	SeqReturn
	// SeqBlocking is a FactBlocking fact of the function itself, outside
	// defer statements (a deferred call runs at exit, not here).
	SeqBlocking
)

// SeqEvent is one lock-relevant event in source order.
type SeqEvent struct {
	Pos  token.Pos
	Kind SeqKind
	Key  string // lock key (SeqLock/SeqUnlock/SeqDeferUnlock)
	Expr string // rendered mutex expression, e.g. "s.mu" (same kinds as Key)
	Desc string // the blocking operation (SeqBlocking)
	Edge *Edge  // resolved call (SeqCall)
}

// Summary holds the directly-observed facts of one function.
type Summary struct {
	Facts    []Fact
	Acquires []LockSite
	Seq      []SeqEvent
}

// Ref is a wall-clock or global-rand use that is not a call fact of any
// node: a bare reference in a function body (c = time.Now), or any use
// in a package-level declaration. Refs do not propagate to callers.
type Ref struct {
	Pkg string // import path of the package the use is in
	Fact
}

// Edge is one call site and its resolved callees.
type Edge struct {
	Pos      token.Pos
	Call     *ast.CallExpr
	Callees  []*Node
	Dynamic  bool   // through a function or method value; callees unknown
	Iface    bool   // interface method call (Callees are CHA candidates)
	IfacePkg string // import path of the package declaring that interface ("" if unnamed)
	Go       bool   // spawned with a go statement
	Deferred bool   // inside a defer statement
}

// Node is one function in the program: a declaration or a literal.
type Node struct {
	Pkg     *loader.Package
	Obj     *types.Func   // declared object; nil for literals
	Decl    *ast.FuncDecl // nil for literals
	Lit     *ast.FuncLit  // nil for declarations
	Name    string        // e.g. "cluster.Coordinator.SetActive", "cache.hashKey$1"
	Hotpath bool          // carries the //lint:hotpath directive
	Calls   []*Edge
	Summary Summary

	direct [numFactKinds]bool
	trans  [numFactKinds]bool
	locks  map[string]bool // transitive closure of acquired lock keys
}

// Reaches reports whether the function or anything it (transitively)
// calls exhibits kind.
func (n *Node) Reaches(kind FactKind) bool { return n.trans[kind] }

// TransLocks returns the set of lock keys the function or its
// transitive callees acquire (go-spawned work excluded: locks taken by
// a spawned goroutine are not held on the spawner's path).
func (n *Node) TransLocks() map[string]bool { return n.locks }

// Pos returns the declaration position of the function.
func (n *Node) Pos() token.Pos {
	if n.Decl != nil {
		return n.Decl.Pos()
	}
	if n.Lit != nil {
		return n.Lit.Pos()
	}
	return token.NoPos
}

// Program is the resolved whole-program call graph.
type Program struct {
	Fset  *token.FileSet
	Pkgs  []*loader.Package
	Nodes []*Node
	Refs  []Ref

	byObj   map[*types.Func]*Node
	byLit   map[*ast.FuncLit]*Node
	methods map[string][]*Node // module methods indexed by name (CHA candidates)
}

// NodeOf returns the node for a declared function object, resolving
// generic instantiations to their origin declaration. Nil when the
// object is not a module function with a body.
func (p *Program) NodeOf(obj *types.Func) *Node {
	if obj == nil {
		return nil
	}
	return p.byObj[obj.Origin()]
}

// Build constructs and resolves the call graph over pkgs.
func Build(fset *token.FileSet, pkgs []*loader.Package) (*Program, error) {
	p := &Program{
		Fset:    fset,
		Pkgs:    pkgs,
		byObj:   make(map[*types.Func]*Node),
		byLit:   make(map[*ast.FuncLit]*Node),
		methods: make(map[string][]*Node),
	}
	for _, pkg := range pkgs {
		p.collectNodes(pkg)
	}
	for _, n := range p.Nodes {
		p.walkNode(n)
	}
	p.propagate()
	return p, nil
}

// pkgBase returns the final element of an import path: the display
// package name used in lock keys and node names.
func pkgBase(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}

// collectNodes creates one node per function declaration and per
// function literal in pkg, in source order.
func (p *Program) collectNodes(pkg *loader.Package) {
	base := pkgBase(pkg.Path)
	varLits := 0
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				// A package-level initializer runs outside every
				// declared function: its uses are Refs, and each
				// function literal in it is a node, pkg.var$N.
				ast.Inspect(decl, func(node ast.Node) bool {
					switch node := node.(type) {
					case *ast.SelectorExpr:
						p.recordRef(pkg, node)
					case *ast.FuncLit:
						return false
					}
					return true
				})
				varLits = p.collectLits(pkg, base+".var", decl, varLits)
				continue
			}
			if fd.Body == nil {
				continue
			}
			obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
			n := &Node{
				Pkg:     pkg,
				Obj:     obj,
				Decl:    fd,
				Name:    declName(base, fd, obj),
				Hotpath: hasHotpathDirective(fd.Doc),
				locks:   make(map[string]bool),
			}
			p.Nodes = append(p.Nodes, n)
			if obj != nil {
				p.byObj[obj] = n
				if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
					p.methods[obj.Name()] = append(p.methods[obj.Name()], n)
				}
			}
			p.collectLits(pkg, n.Name, fd.Body, 0)
		}
	}
}

// collectLits creates a node for every function literal under root,
// so control-flow facts stay per-function. They are named parent$N,
// numbered on from index in source order; it returns the last number.
func (p *Program) collectLits(pkg *loader.Package, parent string, root ast.Node, index int) int {
	ast.Inspect(root, func(node ast.Node) bool {
		lit, ok := node.(*ast.FuncLit)
		if !ok {
			return true
		}
		index++
		ln := &Node{
			Pkg:   pkg,
			Lit:   lit,
			Name:  fmt.Sprintf("%s$%d", parent, index),
			locks: make(map[string]bool),
		}
		p.Nodes = append(p.Nodes, ln)
		p.byLit[lit] = ln
		return true
	})
	return index
}

// declName renders a stable display name for a declaration.
func declName(base string, fd *ast.FuncDecl, obj *types.Func) string {
	if obj != nil {
		if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
			recv := sig.Recv().Type()
			if ptr, ok := recv.(*types.Pointer); ok {
				recv = ptr.Elem()
			}
			if named, ok := recv.(*types.Named); ok {
				return fmt.Sprintf("%s.%s.%s", base, named.Obj().Name(), obj.Name())
			}
		}
	}
	return fmt.Sprintf("%s.%s", base, fd.Name.Name)
}

// hasHotpathDirective reports whether a doc comment carries
// //lint:hotpath.
func hasHotpathDirective(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if c.Text == HotpathDirective || strings.HasPrefix(c.Text, HotpathDirective+" ") {
			return true
		}
	}
	return false
}

// body returns the statement block a node analyzes.
func (n *Node) body() *ast.BlockStmt {
	if n.Decl != nil {
		return n.Decl.Body
	}
	return n.Lit.Body
}

// resultTuple returns the declared result types of the node's
// signature, for boxing detection at return statements.
func (n *Node) resultTuple() *types.Tuple {
	if n.Obj != nil {
		if sig, ok := n.Obj.Type().(*types.Signature); ok {
			return sig.Results()
		}
		return nil
	}
	if n.Lit != nil {
		if sig, ok := n.Pkg.Info.TypeOf(n.Lit).(*types.Signature); ok {
			return sig.Results()
		}
	}
	return nil
}
