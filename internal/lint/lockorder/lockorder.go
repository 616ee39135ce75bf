// Package lockorder defines the repository's mutex checks, one
// function at a time and across the whole program.
//
// Within one function it flags the two mistakes that have historically
// produced the worst cache-fleet incidents: returning with a mutex
// still held (a missing unlock on an error path), and blocking — on the
// network, a channel, a sleep or a WaitGroup — while holding one. The
// analysis is a source-order approximation, not a full control-flow
// graph: Lock/Unlock/return/blocking events are ordered by position and
// replayed. This accepts the repository's standard idioms (defer
// unlock; guard-unlock-return; unlock before a blocking call) while
// catching the plain early-return and network-under-lock bugs.
// Conditional locking across branches can misfire; such sites carry a
// //lint:allow lockorder directive with a justification.
//
// Across the program, the same replay runs with call edges expanded
// through the call graph: acquiring key B — directly or anywhere in a
// synchronous callee — while key A is held adds the order edge A -> B
// to the global mutex-acquisition-order graph. A cycle in that key
// digraph is a potential deadlock, reported once per cycle with the
// acquisition path of every hop.
//
// Lock keys are instance-insensitive ("transition.Machine.prov" keys on
// the field's owning type, not the instance), so acquiring the same
// key on two *different* instances is deliberately not an ordering
// observation: call-derived self-edges are skipped, trading the rare
// real two-instance deadlock for zero false positives on the common
// lock-two-shards idiom.
//
// The check also reports blocking operations reachable through a call
// made while a mutex is held — the interprocedural completion of the
// direct blocking-under-lock rule.
package lockorder

import (
	"fmt"
	"go/token"
	"sort"

	"proteus/internal/lint/analysis"
	"proteus/internal/lint/callgraph"
)

// Analyzer is the lockorder check.
var Analyzer = &callgraph.Analyzer{
	Name: "lockorder",
	Doc:  "flag returns with a mutex held and blocking operations (network, channels, sleeps) made or reached through calls under a mutex, and mutex acquisition-order cycles (potential deadlocks) across the whole program",
	Run:  run,
}

// orderEdge is one observation "from held while to acquired", with the
// evidence needed to print the acquisition path.
type orderEdge struct {
	from, to string
	node     *callgraph.Node // function where the ordering was observed
	holdPos  token.Pos       // where from was acquired
	sitePos  token.Pos       // where to was acquired, or the call site
	callee   *callgraph.Node // non-nil when to is acquired through a call
}

func run(prog *callgraph.Program) ([]analysis.Diagnostic, error) {
	var out []analysis.Diagnostic
	edges := make(map[[2]string][]orderEdge)
	succ := make(map[string]map[string]bool)

	addEdge := func(e orderEdge) {
		key := [2]string{e.from, e.to}
		edges[key] = append(edges[key], e)
		if succ[e.from] == nil {
			succ[e.from] = make(map[string]bool)
		}
		succ[e.from][e.to] = true
	}

	for _, n := range prog.Nodes {
		out = append(out, replay(prog, n, addEdge)...)
	}

	out = append(out, reportCycles(prog, edges, succ)...)
	return out, nil
}

// replay walks one function's source-order lock events, deriving order
// edges, leaked-lock returns and blocking-under-lock findings.
func replay(prog *callgraph.Program, n *callgraph.Node, addEdge func(orderEdge)) []analysis.Diagnostic {
	seq := append([]callgraph.SeqEvent(nil), n.Summary.Seq...)
	sort.SliceStable(seq, func(i, j int) bool { return seq[i].Pos < seq[j].Pos })

	var out []analysis.Diagnostic
	report := func(pos token.Pos, format string, args ...any) {
		out = append(out, analysis.Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
	}
	held := map[string]token.Pos{} // by lock key; derives the order edges
	blockReported := map[string]bool{}
	// The intraprocedural rules key on the rendered expression, so two
	// mutexes of one type stay distinct. Each reports once per
	// acquisition: a finding drops the expression from its set here,
	// never from held.
	blockable := map[string]bool{} // held, no blocking reported since
	leakable := map[string]bool{}  // no deferred unlock, no return reported since
	for _, ev := range seq {
		switch ev.Kind {
		case callgraph.SeqLock:
			for h, pos := range held {
				if h != ev.Key {
					addEdge(orderEdge{from: h, to: ev.Key, node: n, holdPos: pos, sitePos: ev.Pos})
				}
			}
			held[ev.Key] = ev.Pos
			blockable[ev.Expr] = true
			leakable[ev.Expr] = true
		case callgraph.SeqUnlock:
			delete(held, ev.Key)
			delete(blockable, ev.Expr)
			delete(leakable, ev.Expr)
		case callgraph.SeqDeferUnlock:
			// Held until return, but every return now releases it.
			delete(leakable, ev.Expr)
		case callgraph.SeqReturn:
			for _, x := range sortedKeys(leakable) {
				report(ev.Pos, "return while %s is held: unlock before returning or use defer %s.Unlock()", x, x)
				delete(leakable, x)
				delete(blockable, x)
			}
		case callgraph.SeqBlocking:
			for _, x := range sortedKeys(blockable) {
				report(ev.Pos, "%s while %s is held: release the mutex before blocking", ev.Desc, x)
				delete(blockable, x)
			}
		case callgraph.SeqCall:
			if len(held) == 0 || ev.Edge == nil {
				continue
			}
			for _, callee := range ev.Edge.Callees {
				if callee.Reaches(callgraph.FactBlocking) {
					for _, h := range sortedKeys(held) {
						if blockReported[h] {
							continue
						}
						blockReported[h] = true
						report(ev.Pos, "call while %s is held reaches a blocking operation: %s; release the mutex first",
							h, prog.FactPathString(callee, callgraph.FactBlocking))
					}
				}
				for key := range callee.TransLocks() {
					for h, pos := range held {
						if h != key {
							addEdge(orderEdge{from: h, to: key, node: n, holdPos: pos, sitePos: ev.Pos, callee: callee})
						}
					}
				}
			}
		}
	}
	return out
}

// sortedKeys returns m's keys in order, so findings reported once per
// lock come out in a fixed order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// reportCycles finds strongly connected components of the key digraph
// and reports one finding per component, printing the acquisition path
// of every hop of a representative cycle.
func reportCycles(prog *callgraph.Program, edges map[[2]string][]orderEdge, succ map[string]map[string]bool) []analysis.Diagnostic {
	sccs := condense(sortedKeys(succ), succ)
	var out []analysis.Diagnostic
	for _, scc := range sccs {
		if len(scc) < 2 {
			continue // self-edges are skipped at derivation time
		}
		sort.Strings(scc)
		cycle := findCycle(scc, succ)
		if cycle == nil {
			continue
		}
		msg := fmt.Sprintf("lock order cycle (potential deadlock) among %d mutexes:", len(scc))
		var pos token.Pos
		for i := 0; i < len(cycle); i++ {
			from, to := cycle[i], cycle[(i+1)%len(cycle)]
			evs := edges[[2]string{from, to}]
			if len(evs) == 0 {
				continue
			}
			sort.Slice(evs, func(a, b int) bool { return evs[a].sitePos < evs[b].sitePos })
			e := evs[0]
			if !pos.IsValid() {
				pos = e.sitePos
			}
			msg += "\n\t" + renderEdge(prog, e)
		}
		out = append(out, analysis.Diagnostic{Pos: pos, Message: msg})
	}
	return out
}

// renderEdge prints one hop's acquisition path.
func renderEdge(prog *callgraph.Program, e orderEdge) string {
	fset := prog.Fset
	if e.callee == nil {
		return fmt.Sprintf("%s holds %s (at %s) and acquires %s at %s",
			e.node.Name, e.from, fset.Position(e.holdPos), e.to, fset.Position(e.sitePos))
	}
	path, acqPos := prog.LockPath(e.callee, e.to)
	chain := callgraph.PathString(path)
	if chain == "" {
		chain = e.callee.Name
	}
	return fmt.Sprintf("%s holds %s (at %s) and calls %s at %s, which acquires %s at %s",
		e.node.Name, e.from, fset.Position(e.holdPos), chain,
		fset.Position(e.sitePos), e.to, fset.Position(acqPos))
}

// condense computes strongly connected components of the key digraph
// (iterative Tarjan).
func condense(keys []string, succ map[string]map[string]bool) [][]string {
	index := make(map[string]int)
	lowlink := make(map[string]int)
	onStack := make(map[string]bool)
	var stack []string
	var sccs [][]string
	next := 0

	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = next
		lowlink[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range sortedKeys(succ[v]) {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if lowlink[w] < lowlink[v] {
					lowlink[v] = lowlink[w]
				}
			} else if onStack[w] && index[w] < lowlink[v] {
				lowlink[v] = index[w]
			}
		}
		if lowlink[v] == index[v] {
			var scc []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			sccs = append(sccs, scc)
		}
	}
	for _, k := range keys {
		if _, seen := index[k]; !seen {
			strongconnect(k)
		}
	}
	return sccs
}

// findCycle returns a cycle through the lexicographically smallest key
// of an SCC, as an ordered key list (last hop closes back to first).
func findCycle(scc []string, succ map[string]map[string]bool) []string {
	inSCC := make(map[string]bool, len(scc))
	for _, k := range scc {
		inSCC[k] = true
	}
	start := scc[0]
	// BFS from start back to start within the SCC.
	type item struct {
		key  string
		prev int
	}
	queue := []item{{key: start, prev: -1}}
	seen := map[string]bool{}
	for i := 0; i < len(queue); i++ {
		cur := queue[i]
		for _, w := range sortedKeys(succ[cur.key]) {
			if w == start && i > 0 {
				var path []string
				for j := i; j >= 0; j = queue[j].prev {
					path = append([]string{queue[j].key}, path...)
				}
				return path
			}
			if inSCC[w] && !seen[w] {
				seen[w] = true
				queue = append(queue, item{key: w, prev: i})
			}
		}
	}
	return nil
}
