package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// The load-distribution baselines the paper compares Proteus against
// (Table II), as placement backends:
//
//   - Modulo (the paper's Naive): hash the key and take it modulo the
//     active server count — the scheme Reddit famously outgrew.
//     Perfectly balanced when the server count is static, but a change
//     of n remaps n/(n+1) of keys: it is not monotone.
//   - Consistent: classic consistent hashing with randomly placed
//     virtual nodes. The paper evaluates two densities: O(log n) nodes
//     per server and n^2/2 total (to match Proteus's node count). All
//     web servers share one RNG seed so their views agree, mirroring
//     the paper's shared Java Random(0). It is monotone, but balanced
//     only as well as its random node placement happens to be.
//
// Neither is selectable by ParseBackend: the Section IV machine's
// migration bound and balance claims hold for neither. The simulator
// builds them by kind for its Naive and Consistent scenarios.

// Modulo is hash-modulo routing for a fleet of n servers.
type Modulo struct {
	n int
}

// NewModulo builds the modulo backend for a fleet of n servers.
func NewModulo(n int) (*Modulo, error) {
	if n < 1 {
		return nil, fmt.Errorf("core: placement needs at least 1 server, got %d", n)
	}
	return &Modulo{n: n}, nil
}

// Kind identifies the backend.
func (m *Modulo) Kind() BackendKind { return BackendModulo }

// Servers returns the fleet size.
func (m *Modulo) Servers() int { return m.n }

// Lookup routes key to its owner among the first active servers.
// Panics when active < 1; clamps active to the fleet size.
//
//lint:hotpath modulo primary routing decision
func (m *Modulo) Lookup(key string, active int) int {
	return m.LookupSeeded(key, 0, active)
}

// LookupSeeded routes key on the ring perturbed by seed; seed 0 is
// the primary ring and agrees with Lookup.
//
//lint:hotpath modulo replica-ring routing decision
func (m *Modulo) LookupSeeded(key string, seed uint64, active int) int {
	if active < 1 {
		panic("core: active server count must be >= 1")
	}
	if active > m.n {
		active = m.n
	}
	return int(PointSeeded(key, seed) % uint64(active))
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

// consistentSeed is the shared RNG seed for virtual node placement (the
// paper uses Java's Random with seed 0 on every web server).
const consistentSeed = 0

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
	perServer := servers / 2
	if perServer < 1 {
		perServer = 1
	}
	return NewConsistent(servers, perServer)
}

// NewConsistent builds a ring with the given number of virtual nodes
// per server, placed uniformly at random with the shared seed.
func NewConsistent(servers, nodesPerServer int) (*Consistent, error) {
	if servers < 1 {
		return nil, fmt.Errorf("core: placement needs at least 1 server, got %d", servers)
	}
	if nodesPerServer < 1 {
		return nil, fmt.Errorf("core: nodesPerServer must be >= 1, got %d", nodesPerServer)
	}
	rng := rand.New(rand.NewSource(consistentSeed))
	nodes := make([]vnode, 0, servers*nodesPerServer)
	for s := 0; s < servers; s++ {
		for v := 0; v < nodesPerServer; v++ {
			nodes = append(nodes, vnode{pos: rng.Uint64() & (RingSize - 1), server: s})
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

// Kind identifies the backend.
func (c *Consistent) Kind() BackendKind { return BackendConsistent }

// Servers returns the configured server count.
func (c *Consistent) Servers() int { return c.servers }

// NumVirtualNodes returns the ring's total virtual node count.
func (c *Consistent) NumVirtualNodes() int { return len(c.nodes) }

// Lookup routes key to its owner among the first active servers.
func (c *Consistent) Lookup(key string, active int) int {
	return c.LookupSeeded(key, 0, active)
}

// LookupSeeded routes the key's seeded ring position to the first
// active virtual node at or after it (wrapping); seed 0 agrees with
// Lookup. Panics when active < 1; clamps active to the fleet size.
func (c *Consistent) LookupSeeded(key string, seed uint64, active int) int {
	if active < 1 {
		panic("core: active server count must be >= 1")
	}
	if active > c.servers {
		active = c.servers
	}
	point := PointSeeded(key, seed)
	start := sort.Search(len(c.nodes), func(i int) bool { return c.nodes[i].pos >= point })
	for i := 0; i < len(c.nodes); i++ {
		node := c.nodes[(start+i)%len(c.nodes)]
		if node.server < active {
			return node.server
		}
	}
	panic("core: no active virtual node found") // impossible: active >= 1
}
