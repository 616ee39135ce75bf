package transition

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"proteus/internal/bloom"
)

// fakeFleet is an in-memory Fleet: power flags, one map per server, and
// switches that make a server unreachable or fail its PowerOn. Every
// actuation is logged so tests can assert "exactly once".
type fakeFleet struct {
	mu          sync.Mutex
	on          []bool
	stores      []map[string]string
	down        map[int]bool // unreachable: every call but power fails
	failPowerOn int          // PowerOn of this node fails; -1 for none
	powerOffs   []int
	writes      int // Set + Delete calls
}

var errDown = errors.New("fake: unreachable")

func newFakeFleet(n int) *fakeFleet {
	f := &fakeFleet{on: make([]bool, n), down: map[int]bool{}, failPowerOn: -1}
	for i := 0; i < n; i++ {
		f.stores = append(f.stores, map[string]string{})
	}
	return f
}

func (f *fakeFleet) PowerOn(i int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if i == f.failPowerOn {
		return fmt.Errorf("fake: node %d will not boot", i)
	}
	f.on[i] = true
	return nil
}

func (f *fakeFleet) PowerOff(i int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.on[i] = false
	f.stores[i] = map[string]string{}
	f.powerOffs = append(f.powerOffs, i)
}

func (f *fakeFleet) reach(i int) error {
	if !f.on[i] || f.down[i] {
		return errDown
	}
	return nil
}

func (f *fakeFleet) Digest(i int) (*bloom.Filter, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.reach(i); err != nil {
		return nil, err
	}
	c, err := bloom.NewCounting(bloom.Params{Counters: 1 << 12, CounterBits: 4, Hashes: 4})
	if err != nil {
		return nil, err
	}
	for k := range f.stores[i] {
		c.Insert(k)
	}
	return c.Snapshot(), nil
}

func (f *fakeFleet) Ping(i int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.reach(i)
}

func (f *fakeFleet) Get(i int, key string, _ []byte) ([]byte, bool, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.reach(i); err != nil {
		return nil, false, err
	}
	v, ok := f.stores[i][key]
	return []byte(v), ok, nil
}

func (f *fakeFleet) Set(i int, key string, value []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.reach(i); err != nil {
		return err
	}
	f.writes++
	f.stores[i][key] = string(value)
	return nil
}

func (f *fakeFleet) Delete(i int, key string) (bool, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.reach(i); err != nil {
		return false, err
	}
	f.writes++
	_, existed := f.stores[i][key]
	delete(f.stores[i], key)
	return existed, nil
}

func (f *fakeFleet) setDown(i int, down bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.down[i] = down
}

func (f *fakeFleet) put(i int, key, value string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stores[i][key] = value
}

func (f *fakeFleet) powerState() []bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return slices.Clone(f.on)
}

// fakeTimer records every armed expiry. Its cancel does nothing — like
// the simulator's engine — so a test can fire a superseded callback and
// check that the generation guard alone makes it a no-op.
type fakeTimer struct {
	mu  sync.Mutex
	fns []func()
}

func (ft *fakeTimer) After(_ time.Duration, fn func()) func() {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	ft.fns = append(ft.fns, fn)
	return func() {}
}

// fire runs the i-th armed expiry, stale or not.
func (ft *fakeTimer) fire(i int) {
	ft.mu.Lock()
	fn := ft.fns[i]
	ft.mu.Unlock()
	fn()
}

type rig struct {
	t     *testing.T
	fleet *fakeFleet
	timer *fakeTimer
	m     *Machine
}

func newRig(t *testing.T, nodes, initial, hotReplicas int) *rig {
	t.Helper()
	r := &rig{t: t, fleet: newFakeFleet(nodes), timer: &fakeTimer{}}
	m, err := New(Config{
		Fleet:         r.fleet,
		Nodes:         nodes,
		InitialActive: initial,
		TTL:           time.Minute,
		HotReplicas:   hotReplicas,
		After:         r.timer.After,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.m = m
	return r
}

func (r *rig) setActive(n int) {
	r.t.Helper()
	if _, err := r.m.SetActive(n); err != nil {
		r.t.Fatalf("SetActive(%d): %v", n, err)
	}
}

func TestNewValidation(t *testing.T) {
	after := (&fakeTimer{}).After
	for name, cfg := range map[string]Config{
		"no fleet":        {Nodes: 2, InitialActive: 1, TTL: time.Second, After: after},
		"no timer":        {Fleet: newFakeFleet(2), Nodes: 2, InitialActive: 1, TTL: time.Second},
		"no nodes":        {Fleet: newFakeFleet(2), InitialActive: 1, TTL: time.Second, After: after},
		"initial too low": {Fleet: newFakeFleet(2), Nodes: 2, TTL: time.Second, After: after},
		"initial too big": {Fleet: newFakeFleet(2), Nodes: 2, InitialActive: 3, TTL: time.Second, After: after},
		"no TTL":          {Fleet: newFakeFleet(2), Nodes: 2, InitialActive: 1, After: after},
		"bad backend":     {Fleet: newFakeFleet(2), Nodes: 2, InitialActive: 1, TTL: time.Second, After: after, Backend: "maglev"},
	} {
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestRelocationSources(t *testing.T) {
	for _, c := range []struct{ from, to, lo, hi int }{
		{2, 3, 0, 2}, // grow: all old-prefix nodes donate
		{5, 2, 2, 5}, // shrink: dying nodes donate
	} {
		if lo, hi := relocationSources(c.from, c.to); lo != c.lo || hi != c.hi {
			t.Errorf("relocationSources(%d,%d) = %d,%d want %d,%d", c.from, c.to, lo, hi, c.lo, c.hi)
		}
	}
}

// The provisioning protocol, one scenario per row: each step acts on
// the machine, then the final power state, actuation log and epoch are
// compared.
func TestProvisioningScenarios(t *testing.T) {
	type step func(r *rig)
	set := func(n int) step { return func(r *rig) { r.setActive(n) } }
	fire := func(i int) step { return func(r *rig) { r.timer.fire(i) } }
	finalize := func(r *rig) { r.m.FinalizeNow() }
	closeM := func(r *rig) { r.m.Close() }
	closedAfter := func(r *rig) {
		if _, err := r.m.SetActive(1); !errors.Is(err, ErrClosed) {
			r.t.Errorf("SetActive after Close = %v, want ErrClosed", err)
		}
	}
	outOfRange := func(r *rig) {
		before := r.m.Epoch()
		for _, n := range []int{0, 5} {
			if flipped, err := r.m.SetActive(n); err == nil || flipped {
				r.t.Errorf("SetActive(%d) = %v, %v; want a refusal", n, flipped, err)
			}
		}
		if r.m.Epoch() != before {
			r.t.Error("a refused decision published an epoch")
		}
	}

	for _, tc := range []struct {
		name       string
		initial    int
		steps      []step
		wantOn     []bool
		wantOffs   []int // power-off log, in order
		wantActive int
		wantFrom   int // == wantActive when no window is open
	}{
		{
			name: "shrink waits for the TTL", initial: 4,
			steps:  []step{set(3)},
			wantOn: []bool{true, true, true, true}, wantActive: 3, wantFrom: 4,
		},
		{
			name: "expiry powers the dying suffix off", initial: 4,
			steps:  []step{set(2), fire(0)},
			wantOn: []bool{true, true, false, false}, wantOffs: []int{2, 3}, wantActive: 2, wantFrom: 2,
		},
		{
			name: "supersede mid-window finalizes the pending window first, once", initial: 4,
			steps:  []step{set(3), set(2), fire(1)},
			wantOn: []bool{true, true, false, false}, wantOffs: []int{3, 2}, wantActive: 2, wantFrom: 2,
		},
		{
			name: "stale TTL callback after a superseding flip is a no-op", initial: 4,
			steps:  []step{set(3), set(2), fire(0)},
			wantOn: []bool{true, true, true, false}, wantOffs: []int{3}, wantActive: 2, wantFrom: 3,
		},
		{
			name: "expiry firing twice powers off once", initial: 3,
			steps:  []step{set(2), fire(0), fire(0)},
			wantOn: []bool{true, true, false, false}, wantOffs: []int{2}, wantActive: 2, wantFrom: 2,
		},
		{
			name: "shrink then regrow inside the window", initial: 3,
			steps:  []step{set(2), set(3)},
			wantOn: []bool{true, true, true, false}, wantOffs: []int{2}, wantActive: 3, wantFrom: 2,
		},
		{
			name: "growth opens a window with nothing to power off", initial: 2,
			steps:  []step{set(4), fire(0)},
			wantOn: []bool{true, true, true, true}, wantActive: 4, wantFrom: 4,
		},
		{
			name: "same target re-issued mid-window just closes the window", initial: 3,
			steps:  []step{set(2), set(2)},
			wantOn: []bool{true, true, false, false}, wantOffs: []int{2}, wantActive: 2, wantFrom: 2,
		},
		{
			name: "FinalizeNow closes the window without the timer", initial: 3,
			steps:  []step{set(1), finalize, fire(0)},
			wantOn: []bool{true, false, false, false}, wantOffs: []int{1, 2}, wantActive: 1, wantFrom: 1,
		},
		{
			name: "Close mid-window finalizes, then refuses", initial: 3,
			steps:  []step{set(2), closeM, closedAfter, closeM, fire(0)},
			wantOn: []bool{true, true, false, false}, wantOffs: []int{2}, wantActive: 2, wantFrom: 2,
		},
		{
			name: "out-of-range targets change nothing", initial: 2,
			steps:  []step{outOfRange},
			wantOn: []bool{true, true, false, false}, wantActive: 2, wantFrom: 2,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, 4, tc.initial, 0)
			for _, s := range tc.steps {
				s(r)
			}
			if got := r.fleet.powerState(); !slices.Equal(got, tc.wantOn) {
				t.Errorf("power state = %v, want %v", got, tc.wantOn)
			}
			if !slices.Equal(r.fleet.powerOffs, tc.wantOffs) {
				t.Errorf("power-offs = %v, want %v", r.fleet.powerOffs, tc.wantOffs)
			}
			ep := r.m.Epoch()
			if ep.Active != tc.wantActive || ep.From != tc.wantFrom {
				t.Errorf("epoch = active %d from %d, want %d from %d", ep.Active, ep.From, tc.wantActive, tc.wantFrom)
			}
			if open := tc.wantFrom != tc.wantActive; ep.Open() != open || ep.Draining() != (tc.wantActive < tc.wantFrom) {
				t.Errorf("Open=%v Draining=%v for active %d from %d", ep.Open(), ep.Draining(), ep.Active, ep.From)
			}
		})
	}
}

// A grow whose PowerOn fails at node i must not strand nodes from..i-1
// powered on outside the prefix: no later decision would reach them
// (SetActive(from) is a no-op), so they would burn power forever.
func TestFailedGrowRollsBack(t *testing.T) {
	for _, failAt := range []int{2, 3, 4} {
		t.Run(fmt.Sprint("fail at ", failAt), func(t *testing.T) {
			r := newRig(t, 5, 2, 0)
			r.fleet.failPowerOn = failAt
			before := r.m.Epoch()
			flipped, err := r.m.SetActive(5)
			if err == nil || flipped {
				t.Fatalf("SetActive(5) = %v, %v; want a refusal", flipped, err)
			}
			var degraded *DegradedDigestError
			if errors.As(err, &degraded) {
				t.Fatalf("a refused grow reported as a degraded flip: %v", err)
			}
			if want := fmt.Sprintf("node %d", failAt); !strings.Contains(err.Error(), want) {
				t.Errorf("error %q does not name %s", err, want)
			}
			if got, want := r.fleet.powerState(), []bool{true, true, false, false, false}; !slices.Equal(got, want) {
				t.Errorf("power state after failed grow = %v, want %v", got, want)
			}
			var booted []int
			for i := 2; i < failAt; i++ {
				booted = append(booted, i)
			}
			if !slices.Equal(r.fleet.powerOffs, booted) {
				t.Errorf("rolled back %v, want %v (exactly what this call booted)", r.fleet.powerOffs, booted)
			}
			if r.m.Epoch() != before {
				t.Errorf("failed grow published an epoch: %+v", r.m.Epoch())
			}
			// The machine is still usable once the node boots.
			r.fleet.failPowerOn = -1
			r.setActive(5)
			if got := r.fleet.powerState(); slices.Contains(got, false) {
				t.Errorf("power state after retry = %v", got)
			}
		})
	}

	fleet := newFakeFleet(3)
	fleet.failPowerOn = 1
	if _, err := New(Config{Fleet: fleet, Nodes: 3, InitialActive: 2, TTL: time.Second, After: (&fakeTimer{}).After}); err == nil {
		t.Fatal("New succeeded although the initial prefix did not boot")
	}
	if fleet.on[0] {
		t.Error("New left node 0 on after failing to boot the initial prefix")
	}
}

// keysOwnedBy returns count keys whose ring-0 owner at the given prefix
// is node.
func keysOwnedBy(e *Epoch, prefix, node, count int) []string {
	var out []string
	for i := 0; len(out) < count; i++ {
		k := fmt.Sprintf("key-%04d", i)
		if e.geo.OwnerOnRing(k, 0, prefix) == node {
			out = append(out, k)
		}
	}
	return out
}

// A source that cannot produce a digest degrades only its own keys: the
// flip happens, the error names the node, the other sources still
// migrate on demand.
func TestDigestFailureDegradesOnlyThatSource(t *testing.T) {
	r := newRig(t, 3, 2, 0)
	// Keys that will move to the new node 2, by their old owner.
	var moving [2][]string
	for i := 0; len(moving[0]) < 4 || len(moving[1]) < 4; i++ {
		k := fmt.Sprintf("key-%04d", i)
		e := r.m.Epoch()
		if old := e.geo.OwnerOnRing(k, 0, 2); e.geo.OwnerOnRing(k, 0, 3) == 2 {
			moving[old] = append(moving[old], k)
			r.fleet.put(old, k, "v")
		}
	}
	r.fleet.setDown(0, true)
	flipped, err := r.m.SetActive(3)
	var degraded *DegradedDigestError
	if !flipped || !errors.As(err, &degraded) {
		t.Fatalf("SetActive = %v, %v; want flipped with a *DegradedDigestError", flipped, err)
	}
	if !slices.Equal(degraded.Nodes, []int{0}) || degraded.From != 2 || degraded.To != 3 || !errors.Is(err, errDown) {
		t.Fatalf("degraded = %+v", degraded)
	}
	ep := r.m.Epoch()
	if ep.Active != 3 || ep.From != 2 || ep.Digests[0] != nil || ep.Digests[1] == nil || ep.Digests[2] != nil {
		t.Fatalf("epoch = %+v", ep)
	}
	for _, k := range moving[0] {
		if _, _, tryOld := ep.Route(k, 0); tryOld {
			t.Errorf("%s: old owner 0 has no digest, yet Route says try it", k)
		}
	}
	for _, k := range moving[1] {
		if owner, old, tryOld := ep.Route(k, 0); !tryOld || old != 1 || owner != 2 {
			t.Errorf("%s: Route = %d, %d, %v; want new 2, old 1, try", k, owner, old, tryOld)
		}
	}
	// A key that did not move is never sent to an old owner.
	for _, k := range keysOwnedBy(ep, 3, 0, 4) {
		if owner, _, tryOld := ep.Route(k, 0); owner != 0 || tryOld {
			t.Errorf("%s: Route = %d, try %v; want owner 0 and no old owner", k, owner, tryOld)
		}
	}
}

// hotKey returns a key with two distinct owners at the given prefix.
func hotKey(t *testing.T, e *Epoch, prefix int, avoid ...string) (string, []int) {
	t.Helper()
	for i := 0; i < 10000; i++ {
		k := fmt.Sprintf("hot-%04d", i)
		if owners := e.geo.DistinctOwnersN(nil, k, prefix, 2); len(owners) == 2 && !slices.Contains(avoid, k) {
			return k, owners
		}
	}
	t.Fatal("no key with two distinct owners")
	return "", nil
}

func TestPromoteSyncsThenMarks(t *testing.T) {
	r := newRig(t, 4, 4, 2)
	key, owners := hotKey(t, r.m.Epoch(), 4)
	r.fleet.put(owners[0], key, "fresh")
	r.fleet.put(owners[1], key, "stale") // a copy from an earlier hot era
	before := r.m.Epoch()
	if !r.m.Promote(key) {
		t.Fatal("promotion vetoed with every owner reachable")
	}
	ep := r.m.Epoch()
	if !ep.IsHot(key) || ep.RingsFor(key) != 2 || !slices.Equal(ep.Owners(key), owners) {
		t.Fatalf("after Promote: hot=%v rings=%d owners=%v", ep.IsHot(key), ep.RingsFor(key), ep.Owners(key))
	}
	if before.IsHot(key) || ep.HotEpoch != before.HotEpoch+1 || ep.Seq != before.Seq+1 {
		t.Errorf("published epochs: before %+v after %+v", before, ep)
	}
	if got := r.fleet.stores[owners[1]][key]; got != "fresh" {
		t.Errorf("replica holds %q after promote-sync, want the primary's value", got)
	}
	if !r.m.Promote(key) || r.m.Epoch() != ep {
		t.Error("re-promoting a hot key must report hot and publish nothing")
	}
	if !r.m.Demote(key) || r.m.Demote(key) || r.m.Epoch().IsHot(key) {
		t.Error("Demote must unmark once")
	}
	if got := r.fleet.stores[owners[1]][key]; got != "fresh" {
		t.Errorf("demote moved data: replica holds %q", got)
	}

	// An absent primary deletes the replica's copy instead.
	other, o2 := hotKey(t, r.m.Epoch(), 4, key)
	r.fleet.put(o2[1], other, "orphan")
	if !r.m.Promote(other) {
		t.Fatal("promotion vetoed")
	}
	if _, ok := r.fleet.stores[o2[1]][other]; ok {
		t.Error("replica kept a copy the primary does not hold")
	}

	if cold := newRig(t, 4, 4, 0); cold.m.Promote(key) || cold.m.Epoch().RingsFor(key) != 1 {
		t.Error("hot-key replication disabled, yet Promote succeeded")
	}
}

// Promotion is atomic: one unreachable owner vetoes it before any copy
// is touched.
func TestPromoteVetoLeavesCopiesUntouched(t *testing.T) {
	r := newRig(t, 4, 4, 2)
	key, owners := hotKey(t, r.m.Epoch(), 4)
	for victim := range owners {
		r.fleet.put(owners[0], key, "fresh")
		r.fleet.put(owners[1], key, "stale")
		r.fleet.setDown(owners[victim], true)
		before := r.m.Epoch()
		if r.m.Promote(key) {
			t.Fatalf("promotion succeeded with owner %d unreachable", owners[victim])
		}
		if r.m.Epoch() != before {
			t.Error("a vetoed promotion published an epoch")
		}
		if r.fleet.writes != 0 || r.fleet.stores[owners[0]][key] != "fresh" || r.fleet.stores[owners[1]][key] != "stale" {
			t.Errorf("a vetoed promotion touched a copy: %d writes, stores %v", r.fleet.writes, r.fleet.stores)
		}
		r.fleet.setDown(owners[victim], false)
	}
}

// After a flip every hot key is re-synced onto its new owner set; one
// with an unreachable owner is demoted instead.
func TestHotSyncAfterFlip(t *testing.T) {
	r := newRig(t, 4, 4, 2)
	// Two hot keys whose owner sets at prefix 3 differ in reachability:
	// "lost" has an owner we take down, "kept" does not.
	var kept, lost string
	victim := -1
	for i := 0; kept == "" || lost == ""; i++ {
		k := fmt.Sprintf("hot-%04d", i)
		e := r.m.Epoch()
		if len(e.geo.DistinctOwnersN(nil, k, 4, 2)) != 2 {
			continue
		}
		at3 := e.geo.DistinctOwnersN(nil, k, 3, 2)
		if len(at3) != 2 {
			continue
		}
		switch {
		case lost == "":
			lost, victim = k, at3[1]
		case !slices.Contains(at3, victim):
			kept = k
		}
	}
	for _, k := range []string{kept, lost} {
		r.fleet.put(r.m.Epoch().Owner(k, 0), k, "v1")
		if !r.m.Promote(k) {
			t.Fatalf("promote %s vetoed", k)
		}
	}
	// A stale copy waits on kept's future replica.
	keptAt3 := r.m.Epoch().geo.DistinctOwnersN(nil, kept, 3, 2)
	r.fleet.put(keptAt3[0], kept, "v2")
	r.fleet.put(keptAt3[1], kept, "stale")
	r.fleet.setDown(victim, true)

	r.setActive(3)
	ep := r.m.Epoch()
	if ep.IsHot(lost) {
		t.Errorf("%s kept hot although owner %d is unreachable", lost, victim)
	}
	if !ep.IsHot(kept) {
		t.Errorf("%s demoted although every owner is reachable", kept)
	}
	if got := r.fleet.stores[keptAt3[1]][kept]; got != "v2" {
		t.Errorf("post-flip sync left %q on the replica, want the primary's v2", got)
	}
}

// Fanout is the write rule: every distinct owner is written, and a
// multi-owner write that missed a copy demotes the key.
func TestFanoutDemotesOnMissedCopy(t *testing.T) {
	r := newRig(t, 4, 4, 2)
	key, owners := hotKey(t, r.m.Epoch(), 4)
	if !r.m.Promote(key) {
		t.Fatal("promote vetoed")
	}
	var wrote []int
	r.m.Fanout(r.m.Epoch(), key, func(o int) bool { wrote = append(wrote, o); return true })
	if !slices.Equal(wrote, owners) || !r.m.Epoch().IsHot(key) {
		t.Fatalf("clean fan-out wrote %v (owners %v), hot=%v", wrote, owners, r.m.Epoch().IsHot(key))
	}
	r.m.Fanout(r.m.Epoch(), key, func(o int) bool { return o != owners[1] })
	if r.m.Epoch().IsHot(key) {
		t.Error("key still hot after a replica missed a write")
	}
	// A cold key has one owner; its failed write demotes nothing.
	before := r.m.Epoch()
	r.m.Fanout(before, key, func(int) bool { return false })
	if r.m.Epoch() != before {
		t.Error("a failed single-owner write published an epoch")
	}
}

// checkEpoch asserts what every published epoch must satisfy on its
// own, whatever the writer was doing when it was loaded.
func checkEpoch(e *Epoch, nodes int) error {
	if e.Active < 1 || e.Active > nodes || e.From < 1 || e.From > nodes {
		return fmt.Errorf("prefix out of range: %+v", e)
	}
	open := e.From != e.Active
	if (e.Digests != nil) != open || e.Open() != open {
		return fmt.Errorf("window fields disagree: digests=%v Open=%v from=%d active=%d", e.Digests != nil, e.Open(), e.From, e.Active)
	}
	if open && len(e.Digests) != nodes {
		return fmt.Errorf("open window carries %d digests for %d nodes", len(e.Digests), nodes)
	}
	if e.Draining() != (open && e.Active < e.From) {
		return fmt.Errorf("Draining=%v with from=%d active=%d", e.Draining(), e.From, e.Active)
	}
	for i := 0; i < 8; i++ {
		k := fmt.Sprintf("hot-%04d", i)
		for _, o := range e.Owners(k) {
			if o < 0 || o >= e.Active {
				return fmt.Errorf("owner %d of %s outside [0,%d)", o, k, e.Active)
			}
		}
		if owner, old, tryOld := e.Route(k, 0); owner >= e.Active || (tryOld && (old >= e.From || e.Digests[old] == nil)) {
			return fmt.Errorf("Route(%s) = %d, %d, %v under %+v", k, owner, old, tryOld, e)
		}
	}
	return nil
}

// Readers loop Epoch() while a writer flips, promotes, demotes and
// expires: every loaded epoch is internally consistent and Seq never
// goes backwards. Run under -race.
func TestEpochsConsistentUnderConcurrency(t *testing.T) {
	const nodes = 5
	r := newRig(t, nodes, 3, 2)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				e := r.m.Epoch()
				if e.Seq < last {
					t.Errorf("Seq went backwards: %d after %d", e.Seq, last)
					return
				}
				last = e.Seq
				if err := checkEpoch(e, nodes); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	// A second writer outside the provisioning lock: the request-path
	// demote that update's retry loop exists for.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				r.m.Demote(fmt.Sprintf("hot-%04d", i%8))
			}
		}
	}()

	seq := r.m.Epoch().Seq
	for i := 0; i < 400; i++ {
		key := fmt.Sprintf("hot-%04d", i%8)
		switch i % 4 {
		case 0:
			r.setActive(2 + (i/4)%(nodes-1))
		case 1:
			r.m.Promote(key)
		case 2:
			r.timer.fire(len(r.timer.fns) - 1)
		case 3:
			r.m.Fanout(r.m.Epoch(), key, func(o int) bool { return o%2 == 0 })
		}
		if now := r.m.Epoch().Seq; now < seq {
			t.Fatalf("Seq went backwards on the writer: %d after %d", now, seq)
		} else {
			seq = now
		}
	}
	close(stop)
	wg.Wait()
	r.m.Close()
	if err := checkEpoch(r.m.Epoch(), nodes); err != nil {
		t.Fatal(err)
	}
}
