package cluster

import (
	"fmt"
	"testing"
	"time"

	"proteus/internal/cache"
	"proteus/internal/testutil"
)

// A node that cannot produce a digest (here: crashed just before the
// decision) must not block the transition — its keys degrade to the
// database path (nil digest => Route never says tryOld).
func TestTransitionProceedsWithoutDigest(t *testing.T) {
	coord, locals, _ := newTestCluster(t, 3, 3)
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("page:%d", i)
		owner := coord.Placement().Lookup(key, 3)
		if err := coord.Client(owner).Set(key, []byte("v"), 0); err != nil {
			t.Fatal(err)
		}
	}
	// Crash the dying server before the decision: its digest fetch
	// will fail.
	if err := locals[2].PowerOff(); err != nil {
		t.Fatal(err)
	}
	err := coord.SetActive(2)
	if err == nil {
		t.Fatal("SetActive should report the digest failure")
	}
	// The transition still took effect.
	if coord.Active() != 2 {
		t.Fatalf("Active = %d, want 2", coord.Active())
	}
	if !coord.InTransition() {
		t.Fatal("no transition in progress")
	}
	// Keys that moved off the crashed server are not flagged for
	// old-owner lookup (no digest), so the web tier goes straight to
	// the database — degraded but correct.
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("page:%d", i)
		if coord.Placement().Lookup(key, 3) != 2 {
			continue
		}
		if _, _, tryOld := coord.Epoch().Route(key, 0); tryOld {
			t.Fatalf("key %s flagged hot despite failed digest fetch", key)
		}
	}
}

// Replication plumbing at the coordinator level.
func TestCoordinatorReplication(t *testing.T) {
	timer := &testutil.ManualTimer{}
	nodes := make([]Node, 4)
	locals := make([]*LocalNode, 4)
	for i := range nodes {
		locals[i] = NewLocalNode(cache.Config{}, testutil.SmallDigest())
		nodes[i] = locals[i]
	}
	coord, err := New(Config{
		Nodes:         nodes,
		InitialActive: 4,
		TTL:           time.Minute,
		Replicas:      2,
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

	if got := coord.Epoch().RingsFor("any-cold-key"); got != 2 {
		t.Fatalf("base replica depth = %d, want 2", got)
	}
	multi, collided := 0, 0
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("k%d", i)
		owners := coord.WriteOwners(key)
		switch len(owners) {
		case 2:
			multi++
			if owners[0] == owners[1] {
				t.Fatalf("WriteOwners returned duplicate %v", owners)
			}
		case 1:
			collided++
		default:
			t.Fatalf("WriteOwners(%q) = %v", key, owners)
		}
		// Ring 0 must agree with Route.
		r0, _, _ := coord.RouteRing(key, 0)
		p, _, _ := coord.Epoch().Route(key, 0)
		if r0 != p {
			t.Fatalf("ring 0 (%d) disagrees with Route (%d)", r0, p)
		}
	}
	if multi == 0 {
		t.Fatal("no keys with two distinct owners")
	}
	// Eq. 3 at n=4, r=2 predicts 75% no-conflict; allow wide slack.
	frac := float64(multi) / 500
	if frac < 0.6 || frac > 0.9 {
		t.Fatalf("distinct-owner fraction %.3f far from Eq.3's 0.75", frac)
	}
}

func TestEpochSnapshot(t *testing.T) {
	coord, _, timer := newTestCluster(t, 3, 3)
	if coord.Epoch().Open() {
		t.Fatal("transition reported while stable")
	}
	if err := coord.SetActive(2); err != nil {
		t.Fatal(err)
	}
	ep := coord.Epoch()
	if !ep.Open() || ep.From != 3 || ep.Active != 2 || !ep.Draining() {
		t.Fatalf("Epoch = %+v", ep)
	}
	timer.Fire()
	if after := coord.Epoch(); after.Open() || after.Seq <= ep.Seq {
		t.Fatalf("epoch after finalize = %+v, loaded before = %+v", after, ep)
	}
	if !ep.Open() {
		t.Fatal("a loaded epoch changed under its reader")
	}
}
