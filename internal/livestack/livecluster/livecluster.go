// Package livecluster is the cluster layer of livestack: it builds the
// cache tier of the paper's Fig. 1 — in-process cluster.LocalNodes (or
// nodes given by the caller, such as remote servers) behind one
// cluster.Coordinator. livestack.Start puts the database, the web tier
// and the HTTP routes on top of it; tests and the conformance checker's
// live plane use it on its own.
//
// It is a package apart from livestack only because livestack imports
// webtier, and webtier's in-package tests build their clusters here.
//
// It is live-plane plumbing, outside the determinism contract: real
// listeners, and wall-clock TTLs unless the caller injects a timer.
package livecluster

import (
	"net"
	"testing"
	"time"

	"proteus/internal/bloom"
	"proteus/internal/cache"
	"proteus/internal/cacheclient"
	"proteus/internal/cluster"
	"proteus/internal/testutil"
)

// Config describes one live stack. New reads the node and coordinator
// fields; livestack.Start reads the rest. Every zero value is usable
// except CorpusPages, which a stack needs.
type Config struct {
	// Nodes is how many in-process cache servers to run; ignored when
	// Cluster.Nodes is set.
	Nodes int
	// CorpusPages sizes the synthetic Wikipedia corpus (stack layer).
	CorpusPages int
	// TTL is the hot-data window, one minute when zero; it is the
	// coordinator's TTL.
	TTL time.Duration
	// Digest is each in-process server's counting filter (default 2¹⁸
	// saturating 4-bit counters, 4 hashes).
	Digest bloom.Params
	// Cluster carries every other coordinator setting as cluster.Config
	// declares it. Its Nodes, when set, are the fleet as given; an
	// InitialActive of 0 activates every node. Its TTL is set from TTL.
	Cluster cluster.Config
	// Seed salts the per-client jitter streams when Cluster.Faults is
	// set.
	Seed int64

	// DBShards is the database tier's shard count (stack layer,
	// default 7).
	DBShards int
	// PieceSize splits larger values into pieces (stack layer, 0 =
	// whole objects).
	PieceSize int
	// Autoscale, when positive, runs the delay-feedback provisioning
	// loop with this slot width over the measured page routes (stack
	// layer).
	Autoscale time.Duration
	// Capacity is the per-server capacity estimate in req/s the
	// autoscaler's feed-forward uses (stack layer).
	Capacity float64
}

// nodeCacheBytes caps each in-process server's cache.
const nodeCacheBytes = 64 << 20

// Cluster is a running coordinator over its nodes.
type Cluster struct {
	Coord *cluster.Coordinator
	// Locals are the in-process servers New started; nil when the
	// nodes were given.
	Locals []*cluster.LocalNode
	// Timer fires the coordinator's TTL expiries; only Start sets it.
	Timer *testutil.ManualTimer
}

// New builds the nodes and the coordinator over them. When
// Cluster.Faults is set and Cluster.NewClient is not, every client
// dials through the injector under its server's provisioning index,
// with retries made deterministic: no real sleeps, no circuit breaker,
// seeded jitter. Callers own Close.
func New(cfg Config) (*Cluster, error) {
	cc := cfg.Cluster
	c := &Cluster{}
	if len(cc.Nodes) == 0 {
		if cfg.Digest == (bloom.Params{}) {
			cfg.Digest = bloom.Params{Counters: 1 << 18, CounterBits: 4, Hashes: 4, Mode: bloom.Saturate}
		}
		cc.Nodes = make([]cluster.Node, cfg.Nodes)
		c.Locals = make([]*cluster.LocalNode, cfg.Nodes)
		for i := range cc.Nodes {
			c.Locals[i] = cluster.NewLocalNode(cache.Config{MaxBytes: nodeCacheBytes}, cfg.Digest)
			cc.Nodes[i] = c.Locals[i]
		}
	}
	if cc.InitialActive == 0 {
		cc.InitialActive = len(cc.Nodes)
	}
	cc.TTL = cfg.TTL
	if cc.TTL <= 0 {
		cc.TTL = time.Minute
	}
	if inj := cc.Faults; inj != nil && cc.NewClient == nil {
		index := make(map[string]int, len(cc.Nodes))
		for i, n := range cc.Nodes {
			index[n.Addr()] = i
		}
		seed := cfg.Seed
		cc.NewClient = func(addr string) *cacheclient.Client {
			server := index[addr]
			return cacheclient.New(addr,
				cacheclient.WithDialer(func(a string, to time.Duration) (net.Conn, error) {
					return inj.Dial(server, a, to)
				}),
				cacheclient.WithTimeout(2*time.Second),
				cacheclient.WithJitterSeed(seed+int64(server)),
				// No real sleeps and no breaker: the fault schedule must
				// be a pure function of the operation sequence, free of
				// wall-clock state, so two runs with one seed match
				// event for event.
				cacheclient.WithSleep(func(time.Duration) {}),
				cacheclient.WithBreaker(0, 0),
			)
		}
	}
	coord, err := cluster.New(cc)
	if err != nil {
		c.powerOff()
		return nil, err
	}
	c.Coord = coord
	return c, nil
}

// Start is New for tests: TTL expiries wait for Timer.Fire unless
// Cluster.After is set, and teardown is registered with t.Cleanup.
func Start(t testing.TB, cfg Config) *Cluster {
	t.Helper()
	timer := &testutil.ManualTimer{}
	if cfg.Cluster.After == nil {
		cfg.Cluster.After = timer.After
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("livecluster: %v", err)
	}
	c.Timer = timer
	t.Cleanup(c.Close)
	return c
}

// Close finalizes any transition and powers the in-process nodes off.
func (c *Cluster) Close() {
	c.Coord.Close()
	c.powerOff()
}

func (c *Cluster) powerOff() {
	for _, l := range c.Locals {
		_ = l.PowerOff()
	}
}
