// Package hashring implements the load-distribution baselines the paper
// compares Proteus against (Table II):
//
//   - Naive: hash the key and take it modulo the active server count —
//     the scheme Reddit famously outgrew. Perfectly balanced when the
//     server count is static, but a change of n remaps n/(n+1) of keys.
//   - Consistent: classic consistent hashing with randomly placed
//     virtual nodes. The paper evaluates two densities: O(log n) nodes
//     per server and n^2/2 total (to match Proteus's node count). All
//     web servers share one RNG seed so their views agree, mirroring
//     the paper's shared Java Random(0).
//
// Both types satisfy the same Router interface as the Proteus placement
// so the evaluation can swap them freely.
package hashring

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"proteus/internal/core"
)

// Router maps a key to a cache server index given the number of active
// servers. All three schemes (Naive, Consistent, Proteus core.Placement
// via Adapter) implement it.
type Router interface {
	// Route returns the server index in [0, active) for the key.
	Route(key string, active int) int
}

// Naive is hash-modulo routing.
type Naive struct{}

// Route implements Router.
func (Naive) Route(key string, active int) int {
	if active < 1 {
		panic("hashring: active server count must be >= 1")
	}
	return int(core.Point(key) % uint64(active))
}

// vnode is one virtual node on a consistent hashing ring.
type vnode struct {
	pos    uint64
	server int
}

// Consistent is textbook consistent hashing with randomly placed
// virtual nodes. Deactivated servers' nodes are skipped during lookup
// (their keys fall through to the next active successor), which is how
// a plain memcached client library behaves when the server list
// shrinks from the tail.
type Consistent struct {
	servers int
	nodes   []vnode // sorted by pos
}

// Seed is the shared RNG seed for virtual node placement (the paper
// uses Java's Random with seed 0 on every web server).
const Seed = 0

// NewConsistentLogN builds a ring with ceil(log2 n) virtual nodes per
// server (at least one), the density the paper's O(log n) curve uses.
func NewConsistentLogN(servers int) (*Consistent, error) {
	perServer := int(math.Ceil(math.Log2(float64(servers + 1))))
	if perServer < 1 {
		perServer = 1
	}
	return NewConsistent(servers, perServer)
}

// NewConsistentHalfSquare builds a ring with n^2/2 virtual nodes in
// total (at least one per server), matching Proteus's node count — the
// paper's "n^2/2" curve.
func NewConsistentHalfSquare(servers int) (*Consistent, error) {
	perServer := servers * servers / 2 / servers // == servers/2
	if perServer < 1 {
		perServer = 1
	}
	return NewConsistent(servers, perServer)
}

// NewConsistent builds a ring with the given number of virtual nodes
// per server, placed uniformly at random with the shared seed.
func NewConsistent(servers, nodesPerServer int) (*Consistent, error) {
	if servers < 1 {
		return nil, fmt.Errorf("hashring: servers must be >= 1, got %d", servers)
	}
	if nodesPerServer < 1 {
		return nil, fmt.Errorf("hashring: nodesPerServer must be >= 1, got %d", nodesPerServer)
	}
	rng := rand.New(rand.NewSource(Seed))
	nodes := make([]vnode, 0, servers*nodesPerServer)
	for s := 0; s < servers; s++ {
		for v := 0; v < nodesPerServer; v++ {
			nodes = append(nodes, vnode{pos: rng.Uint64() & (core.RingSize - 1), server: s})
		}
	}
	sort.Slice(nodes, func(i, j int) bool {
		if nodes[i].pos != nodes[j].pos {
			return nodes[i].pos < nodes[j].pos
		}
		return nodes[i].server < nodes[j].server
	})
	return &Consistent{servers: servers, nodes: nodes}, nil
}

// Servers returns the configured server count.
func (c *Consistent) Servers() int { return c.servers }

// NumVirtualNodes returns the ring's total virtual node count.
func (c *Consistent) NumVirtualNodes() int { return len(c.nodes) }

// Route implements Router: the key is served by the first active
// virtual node at or after its ring position (wrapping).
func (c *Consistent) Route(key string, active int) int {
	if active < 1 {
		panic("hashring: active server count must be >= 1")
	}
	if active > c.servers {
		active = c.servers
	}
	point := core.Point(key)
	start := sort.Search(len(c.nodes), func(i int) bool { return c.nodes[i].pos >= point })
	for i := 0; i < len(c.nodes); i++ {
		node := c.nodes[(start+i)%len(c.nodes)]
		if node.server < active {
			return node.server
		}
	}
	panic("hashring: no active virtual node found") // impossible: active >= 1
}

// Adapter exposes a Proteus placement through the Router interface.
type Adapter struct {
	Placement *core.Placement
}

// Route implements Router.
func (a Adapter) Route(key string, active int) int {
	return a.Placement.Lookup(key, active)
}

var (
	_ Router = Naive{}
	_ Router = (*Consistent)(nil)
	_ Router = Adapter{}
)
