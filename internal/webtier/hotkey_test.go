package webtier

import (
	"testing"

	"proteus/internal/cluster"
	"proteus/internal/hotkey"
	"proteus/internal/livestack/livecluster"
)

// newHotEnv builds a cluster with hot-key replication at depth 2 and,
// optionally, the online promotion tracker.
func newHotEnv(t *testing.T, nodes, active int, tracker *hotkey.TrackerConfig) *env {
	t.Helper()
	return buildEnv(t,
		livecluster.Config{Nodes: nodes, Cluster: cluster.Config{InitialActive: active, HotReplicas: 2, HotTracker: tracker}},
		envShape{pages: 400})
}

// hotCandidate finds a key whose two rings resolve to distinct owners
// at the current active size.
func hotCandidate(t *testing.T, e *env) (key string, owners []int) {
	t.Helper()
	for i := 0; i < e.corpus.Pages(); i++ {
		k := e.corpus.Key(i)
		if e.coord.Epoch().IsHot(k) {
			continue
		}
		a, _, _ := e.coord.RouteRing(k, 0)
		b, _, _ := e.coord.RouteRing(k, 1)
		if a != b {
			return k, []int{a, b}
		}
	}
	t.Fatal("no key with two distinct owners")
	return "", nil
}

// Promotion must replicate the key to every owner, writes must fan
// out, and after the primary crashes the replica still serves from
// cache — the whole point of the hot set.
func TestHotKeyPromotionReplicatesAndSurvivesCrash(t *testing.T) {
	e := newHotEnv(t, 4, 4, nil)
	key, owners := hotCandidate(t, e)

	if _, _, err := e.front.Fetch(key); err != nil { // db fill on the primary
		t.Fatal(err)
	}
	if !e.coord.Promote(key) {
		t.Fatal("promote vetoed on a healthy cluster")
	}
	if e.coord.Epoch().RingsFor(key) != 2 {
		t.Fatalf("hot key resolves at depth %d, want 2", e.coord.Epoch().RingsFor(key))
	}
	for _, o := range owners {
		if !e.locals[o].Server().Cache().Contains(key) {
			t.Fatalf("owner %d missing the copy after promotion", o)
		}
	}

	// A write must land on both owners.
	fresh := []byte("updated-by-hotkey-test")
	if err := e.front.Update(key, fresh); err != nil {
		t.Fatal(err)
	}
	for _, o := range owners {
		got, ok := e.locals[o].Server().Cache().Get(key)
		if !ok || string(got) != string(fresh) {
			t.Fatalf("owner %d holds (%q, %v) after fan-out write", o, got, ok)
		}
	}

	// Crash the primary: the replica serves the hot key from cache.
	if err := e.locals[owners[0]].PowerOff(); err != nil {
		t.Fatal(err)
	}
	data, src, err := e.front.Fetch(key)
	if err != nil {
		t.Fatalf("fetch after primary crash: %v", err)
	}
	if src != SourceNewCache || string(data) != string(fresh) {
		t.Fatalf("got (%q, %s), want the replica's cached copy", data, src)
	}
	if e.front.Stats().ReplicaHits == 0 {
		t.Fatal("replica hit not counted")
	}
}

// A fan-out write that misses an owner must auto-demote the key: the
// unreached replica may hold the previous value, so the key must stop
// resolving at depth 2.
func TestHotKeyWriteFailureAutoDemotes(t *testing.T) {
	e := newHotEnv(t, 4, 4, nil)
	key, owners := hotCandidate(t, e)

	if _, _, err := e.front.Fetch(key); err != nil {
		t.Fatal(err)
	}
	if !e.coord.Promote(key) {
		t.Fatal("promote vetoed on a healthy cluster")
	}
	if err := e.locals[owners[1]].PowerOff(); err != nil {
		t.Fatal(err)
	}
	// The write reaches the primary but not the dead replica.
	if err := e.front.Update(key, []byte("post-crash value")); err != nil {
		t.Fatal(err)
	}
	if e.coord.Epoch().IsHot(key) {
		t.Fatal("key still hot after a failed fan-out write")
	}
	// Routing is back to the single healthy primary.
	data, src, err := e.front.Fetch(key)
	if err != nil || src != SourceNewCache || string(data) != "post-crash value" {
		t.Fatalf("primary did not serve the demoted key: (%q, %s, %v)", data, src, err)
	}
}

// With the tracker enabled, a skewed read stream promotes its head key
// without any explicit Promote call, and the copies land on both
// owners — the online pipeline end to end.
func TestOnlineTrackerPromotesHotKey(t *testing.T) {
	e := newHotEnv(t, 4, 4, &hotkey.TrackerConfig{Window: 64, MaxHot: 2, PromoteShare: 0.2})
	key, owners := hotCandidate(t, e)

	// Two windows of a stream dominated by one key: the first window
	// decides the promotion, the second proves stability.
	for i := 0; i < 128; i++ {
		k := key
		if i%4 == 3 { // background noise
			k = e.corpus.Key(i % e.corpus.Pages())
		}
		if _, _, err := e.front.Fetch(k); err != nil {
			t.Fatal(err)
		}
	}
	if !e.coord.Epoch().IsHot(key) {
		t.Fatalf("tracker never promoted the dominant key (hot set %v)", e.coord.HotKeys())
	}
	for _, o := range owners {
		if !e.locals[o].Server().Cache().Contains(key) {
			t.Fatalf("owner %d missing the copy after online promotion", o)
		}
	}
}
