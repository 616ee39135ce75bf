package cluster

import (
	"fmt"
	"testing"
	"time"

	"proteus/internal/cache"
	"proteus/internal/cacheclient"
	"proteus/internal/telemetry"
	"proteus/internal/testutil"
)

// newTestCluster builds n local nodes and a coordinator with initial
// active servers and a manual TTL timer. It cannot use livecluster
// (which imports this package); testutil's leaf helpers carry the
// shared digest parameters and timer.
func newTestCluster(t *testing.T, n, initial int) (*Coordinator, []*LocalNode, *testutil.ManualTimer) {
	t.Helper()
	timer := &testutil.ManualTimer{}
	nodes := make([]Node, n)
	locals := make([]*LocalNode, n)
	for i := range nodes {
		local := NewLocalNode(cache.Config{}, testutil.SmallDigest())
		locals[i] = local
		nodes[i] = local
	}
	coord, err := New(Config{
		Nodes:         nodes,
		InitialActive: initial,
		TTL:           time.Minute,
		After:         timer.After,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		coord.Close()
		for _, l := range locals {
			l.PowerOff()
		}
	})
	return coord, locals, timer
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	node := NewLocalNode(cache.Config{}, testutil.SmallDigest())
	defer node.PowerOff()
	if _, err := New(Config{Nodes: []Node{node}, InitialActive: 2, TTL: time.Minute}); err == nil {
		t.Error("InitialActive > nodes accepted")
	}
	if _, err := New(Config{Nodes: []Node{node}, InitialActive: 1}); err == nil {
		t.Error("zero TTL accepted")
	}
}

func TestInitialPowerState(t *testing.T) {
	_, locals, _ := newTestCluster(t, 4, 2)
	for i, l := range locals {
		want := i < 2
		if l.Running() != want {
			t.Errorf("node %d running=%v, want %v", i, l.Running(), want)
		}
	}
}

func TestRouteStableWithoutTransition(t *testing.T) {
	coord, _, _ := newTestCluster(t, 4, 3)
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("k%d", i)
		owner, _, tryOld := coord.Epoch().Route(key, 0)
		if tryOld {
			t.Fatalf("tryOld set outside a transition for %q", key)
		}
		if owner < 0 || owner >= 3 {
			t.Fatalf("owner %d out of range for active=3", owner)
		}
		if owner != coord.Placement().Lookup(key, 3) {
			t.Fatalf("Route(%q) diverges from placement", key)
		}
	}
}

// The full Section IV story over real TCP: populate, shrink, verify the
// digest routes hot keys to their old owner, then power-off at TTL.
func TestScaleDownSmoothTransition(t *testing.T) {
	coord, locals, timer := newTestCluster(t, 3, 3)

	// Populate all three servers through their owners.
	keys := make([]string, 300)
	for i := range keys {
		keys[i] = fmt.Sprintf("page:%d", i)
		owner := coord.Placement().Lookup(keys[i], 3)
		if err := coord.Client(owner).Set(keys[i], []byte("v"), 0); err != nil {
			t.Fatal(err)
		}
	}

	if err := coord.SetActive(2); err != nil {
		t.Fatal(err)
	}
	if !coord.InTransition() {
		t.Fatal("no transition after scale-down")
	}
	if coord.Active() != 2 {
		t.Fatalf("Active = %d, want 2", coord.Active())
	}
	// The dying server must still be up during the TTL window.
	if !locals[2].Running() {
		t.Fatal("dying server powered off before TTL")
	}

	// Keys that moved from server 2 must be flagged for old-owner
	// lookup via the digest.
	moved, flagged := 0, 0
	for _, key := range keys {
		oldOwner := coord.Placement().Lookup(key, 3)
		newOwner, gotOld, tryOld := coord.Epoch().Route(key, 0)
		if newOwner != coord.Placement().Lookup(key, 2) {
			t.Fatalf("Route(%q) new owner wrong", key)
		}
		if oldOwner == 2 {
			moved++
			if tryOld {
				flagged++
				if gotOld != 2 {
					t.Fatalf("Route(%q) old owner = %d, want 2", key, gotOld)
				}
			}
		} else if tryOld {
			t.Fatalf("unmoved key %q flagged for old-owner lookup", key)
		}
	}
	if moved == 0 {
		t.Fatal("no keys owned by the dying server; test broken")
	}
	if flagged < moved*9/10 {
		t.Fatalf("only %d/%d moved keys flagged hot; digest broadcast broken", flagged, moved)
	}

	// TTL expiry powers the dying server off and ends the transition.
	timer.Fire()
	if coord.InTransition() {
		t.Fatal("transition still pending after TTL")
	}
	if locals[2].Running() {
		t.Fatal("dying server still running after TTL")
	}
}

func TestScaleUpBootsAndMigrates(t *testing.T) {
	coord, locals, timer := newTestCluster(t, 3, 2)
	keys := make([]string, 200)
	for i := range keys {
		keys[i] = fmt.Sprintf("page:%d", i)
		owner := coord.Placement().Lookup(keys[i], 2)
		if err := coord.Client(owner).Set(keys[i], []byte("v"), 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := coord.SetActive(3); err != nil {
		t.Fatal(err)
	}
	if !locals[2].Running() {
		t.Fatal("new server not powered on")
	}
	// Keys that now belong to server 2 must be flagged to their old
	// owners.
	flagged := 0
	for _, key := range keys {
		newOwner, oldOwner, tryOld := coord.Epoch().Route(key, 0)
		if newOwner == 2 {
			if tryOld {
				flagged++
				if want := coord.Placement().Lookup(key, 2); oldOwner != want {
					t.Fatalf("old owner = %d, want %d", oldOwner, want)
				}
			}
		}
	}
	if flagged == 0 {
		t.Fatal("no keys flagged for migration on scale-up")
	}
	timer.Fire()
	// Scale-up finalization powers nothing off.
	for i, l := range locals {
		if !l.Running() {
			t.Fatalf("node %d off after scale-up finalize", i)
		}
	}
}

// A shrink powers node 2 off at TTL expiry and a regrow boots a new
// server at its address. The client's pooled connections died with the
// old server; the coordinator drops them at power-off, so the first
// operations after the regrow dial fresh instead of finding each stale
// socket by failing on it (one retry each; a full pool of 16 opens the
// breaker against a healthy node).
func TestRegrowDialsPowerCycledNodeFresh(t *testing.T) {
	reg := telemetry.NewRegistry()
	timer := &testutil.ManualTimer{}
	nodes := make([]Node, 3)
	for i := range nodes {
		nodes[i] = NewLocalNode(cache.Config{}, testutil.SmallDigest())
	}
	coord, err := New(Config{
		Nodes: nodes, InitialActive: 3, TTL: time.Minute, After: timer.After,
		NewClient: func(addr string) *cacheclient.Client {
			return cacheclient.New(addr, cacheclient.WithTelemetry(reg))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		coord.Close()
		for _, n := range nodes {
			n.PowerOff()
		}
	})

	// Leave an idle connection to node 2 in its client's pool.
	if err := coord.Client(2).Set("warm", []byte("v"), 0); err != nil {
		t.Fatal(err)
	}

	if err := coord.SetActive(2); err != nil {
		t.Fatal(err)
	}
	timer.Fire() // TTL expiry: node 2 powers off
	if err := coord.SetActive(3); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := coord.Client(2).Set(fmt.Sprintf("regrown:%d", i), []byte("v"), 0); err != nil {
			t.Fatalf("operation %d on the regrown node: %v", i, err)
		}
	}
	retries := reg.Counter("proteus_client_retries_total",
		"operation retries (stale-connection and backoff)", "addr")
	if n := retries.Total(); n != 0 {
		t.Fatalf("%d client retries: the regrown node was reached through stale connections", n)
	}
}

func TestSetActiveNoopAndValidation(t *testing.T) {
	coord, _, _ := newTestCluster(t, 3, 2)
	if err := coord.SetActive(2); err != nil {
		t.Fatalf("noop SetActive: %v", err)
	}
	if coord.InTransition() {
		t.Fatal("noop created a transition")
	}
	if err := coord.SetActive(0); err == nil {
		t.Error("SetActive(0) accepted")
	}
	if err := coord.SetActive(4); err == nil {
		t.Error("SetActive(4) accepted with 3 nodes")
	}
}

func TestSupersedingDecisionFinalizesPrevious(t *testing.T) {
	coord, locals, _ := newTestCluster(t, 4, 4)
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("k%d", i)
		owner := coord.Placement().Lookup(key, 4)
		if err := coord.Client(owner).Set(key, []byte("v"), 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := coord.SetActive(3); err != nil {
		t.Fatal(err)
	}
	// Next decision lands before TTL: the pending transition finalizes
	// (server 3 powers off) and a new one starts.
	if err := coord.SetActive(2); err != nil {
		t.Fatal(err)
	}
	if locals[3].Running() {
		t.Fatal("server 3 still on after superseding decision")
	}
	if !locals[2].Running() {
		t.Fatal("server 2 (dying, in-window) powered off early")
	}
	if coord.Active() != 2 {
		t.Fatalf("Active = %d, want 2", coord.Active())
	}
}

func TestCloseRejectsFurtherDecisions(t *testing.T) {
	coord, _, _ := newTestCluster(t, 2, 1)
	coord.Close()
	if err := coord.SetActive(2); err != ErrClosed {
		t.Fatalf("SetActive after Close = %v, want ErrClosed", err)
	}
	coord.Close() // idempotent
}

func TestLocalNodePowerCycleKeepsAddr(t *testing.T) {
	node := NewLocalNode(cache.Config{}, testutil.SmallDigest())
	addr := node.Addr()
	if err := node.PowerOn(); err != nil {
		t.Fatal(err)
	}
	if node.Addr() != addr {
		t.Fatalf("addr changed after power on: %s -> %s", addr, node.Addr())
	}
	if err := node.PowerOn(); err != nil {
		t.Fatalf("double PowerOn: %v", err)
	}
	if err := node.PowerOff(); err != nil {
		t.Fatal(err)
	}
	if err := node.PowerOff(); err != nil {
		t.Fatalf("double PowerOff: %v", err)
	}
	if err := node.PowerOn(); err != nil {
		t.Fatalf("re-PowerOn: %v", err)
	}
	if node.Addr() != addr {
		t.Fatalf("addr changed across power cycle")
	}
	node.PowerOff()
}
