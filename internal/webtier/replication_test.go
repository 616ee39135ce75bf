package webtier

import (
	"testing"

	"proteus/internal/cluster"
	"proteus/internal/livestack/livecluster"
)

// newReplicatedEnv builds a cluster with r-way replication enabled.
func newReplicatedEnv(t *testing.T, nodes, active, replicas int) *env {
	t.Helper()
	return buildEnv(t,
		livecluster.Config{Nodes: nodes, Cluster: cluster.Config{InitialActive: active, Replicas: replicas}},
		envShape{pages: 400})
}

func TestReplicatedWriteThroughStoresAllCopies(t *testing.T) {
	e := newReplicatedEnv(t, 4, 4, 2)
	for i := 0; i < e.corpus.Pages(); i++ {
		if _, _, err := e.front.Fetch(e.corpus.Key(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Every key must be resident on each of its distinct owners.
	for i := 0; i < e.corpus.Pages(); i++ {
		key := e.corpus.Key(i)
		for _, owner := range e.coord.WriteOwners(key) {
			if !e.locals[owner].Server().Cache().Contains(key) {
				t.Fatalf("key %s missing from replica owner %d", key, owner)
			}
		}
	}
}

// The fault-tolerance story: after one server crashes (not a planned
// transition — its data is simply gone and it answers nothing), keys
// with a surviving replica are still served from cache.
func TestReplicaServesAfterCrash(t *testing.T) {
	e := newReplicatedEnv(t, 4, 4, 2)
	for i := 0; i < e.corpus.Pages(); i++ {
		if _, _, err := e.front.Fetch(e.corpus.Key(i)); err != nil {
			t.Fatal(err)
		}
	}

	// Crash node 3 without telling the coordinator.
	crashed := 3
	if err := e.locals[crashed].PowerOff(); err != nil {
		t.Fatal(err)
	}

	servedFromCache, replicated := 0, 0
	for i := 0; i < e.corpus.Pages(); i++ {
		key := e.corpus.Key(i)
		primary, _, _ := e.coord.RouteRing(key, 0)
		secondary, _, _ := e.coord.RouteRing(key, 1)
		if primary != crashed || secondary == crashed || secondary == primary {
			continue // only keys whose primary died but replica survives
		}
		replicated++
		_, source, err := e.front.Fetch(key)
		if err != nil {
			t.Fatalf("fetch %s after crash: %v", key, err)
		}
		if source == SourceNewCache {
			servedFromCache++
		}
	}
	if replicated == 0 {
		t.Fatal("no keys with a surviving replica; test broken")
	}
	if servedFromCache < replicated*9/10 {
		t.Fatalf("only %d/%d crash-affected keys served from the replica", servedFromCache, replicated)
	}
	if s := e.front.Stats(); s.ReplicaHits == 0 {
		t.Fatal("ReplicaHits not counted")
	}
}

// Keys whose entire replica set died fall back to the database and are
// re-replicated by the write-through.
func TestCrashFallsBackToDatabaseAndRepairs(t *testing.T) {
	e := newReplicatedEnv(t, 2, 2, 2)
	for i := 0; i < e.corpus.Pages(); i++ {
		if _, _, err := e.front.Fetch(e.corpus.Key(i)); err != nil {
			t.Fatal(err)
		}
	}
	// With 2 nodes and 2 rings, crash node 1: keys owned by node 1 on
	// both rings lose all copies.
	if err := e.locals[1].PowerOff(); err != nil {
		t.Fatal(err)
	}
	key := ""
	for i := 0; i < e.corpus.Pages(); i++ {
		k := e.corpus.Key(i)
		owners := e.coord.WriteOwners(k)
		if len(owners) == 1 && owners[0] == 1 {
			key = k
			break
		}
	}
	if key == "" {
		t.Skip("no key with all copies on the crashed node")
	}
	_, source, err := e.front.Fetch(key)
	if err != nil {
		t.Fatal(err)
	}
	if source != SourceDatabase {
		t.Fatalf("fetch after total loss served from %v, want database", source)
	}
}

// Replication composes with smooth transitions: scale down and verify
// on-demand migration still works per ring.
func TestReplicatedSmoothTransition(t *testing.T) {
	e := newReplicatedEnv(t, 3, 3, 2)
	for i := 0; i < e.corpus.Pages(); i++ {
		if _, _, err := e.front.Fetch(e.corpus.Key(i)); err != nil {
			t.Fatal(err)
		}
	}
	before := e.front.Stats().DBFetches
	if err := e.coord.SetActive(2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < e.corpus.Pages(); i++ {
		if _, _, err := e.front.Fetch(e.corpus.Key(i)); err != nil {
			t.Fatal(err)
		}
	}
	extra := e.front.Stats().DBFetches - before
	if extra > uint64(e.corpus.Pages()/20) {
		t.Fatalf("replicated transition leaked %d fetches to the database", extra)
	}
	e.timer.Fire()
	if e.locals[2].Running() {
		t.Fatal("dying server still up after TTL")
	}
}
