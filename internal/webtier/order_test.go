package webtier

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"proteus/internal/bloom"
	"proteus/internal/transition"
)

// recTier is a CacheTier with no socket under it: the shared machine
// over in-memory maps, recording which node each MultiGet went to.
type recTier struct {
	*transition.Machine
	stores    []map[string][]byte
	multiGets []int
}

func newRecTier(t *testing.T, nodes int) *recTier {
	t.Helper()
	r := &recTier{stores: make([]map[string][]byte, nodes)}
	for i := range r.stores {
		r.stores[i] = map[string][]byte{}
	}
	m, err := transition.New(transition.Config{
		Fleet: recFleet{r}, Nodes: nodes, InitialActive: nodes, TTL: time.Minute,
		After: func(time.Duration, func()) func() { return func() {} },
	})
	if err != nil {
		t.Fatal(err)
	}
	r.Machine = m
	return r
}

func (r *recTier) ObserveGet(string)        {}
func (r *recTier) LoadEstimate(int) float64 { return 0 }

func (r *recTier) Get(i int, key string, _ []byte) ([]byte, bool, error) {
	v, ok := r.stores[i][key]
	return v, ok, nil
}

func (r *recTier) Set(i int, key string, value []byte) error {
	r.stores[i][key] = value
	return nil
}

func (r *recTier) Delete(i int, key string) (bool, error) {
	_, ok := r.stores[i][key]
	delete(r.stores[i], key)
	return ok, nil
}

func (r *recTier) MultiGet(i int, keys ...string) (map[string][]byte, error) {
	r.multiGets = append(r.multiGets, i)
	got := map[string][]byte{}
	for _, k := range keys {
		if v, ok := r.stores[i][k]; ok {
			got[k] = v
		}
	}
	return got, nil
}

// recFleet adds the power and digest half of transition.Fleet, which
// these tests never exercise (no transition is started).
type recFleet struct{ *recTier }

func (recFleet) PowerOn(int) error { return nil }
func (recFleet) PowerOff(int)      {}
func (recFleet) Ping(int) error    { return nil }
func (recFleet) Digest(int) (*bloom.Filter, error) {
	return nil, errors.New("recFleet: no digests")
}

type mapDB map[string][]byte

func (m mapDB) Get(key string) ([]byte, error) {
	v, ok := m[key]
	if !ok {
		return nil, fmt.Errorf("no key %q", key)
	}
	return v, nil
}

// Batched reads go out in ascending owner order on every call. Grouping
// by owner in a Go map made the order follow the map seed, so which
// exchange a count-based fault rule hit differed between two runs of
// one schedule.
func TestBatchesVisitOwnersAscending(t *testing.T) {
	const nodes = 4
	db := mapDB{}
	keys := make([]string, 32)
	for i := range keys {
		keys[i] = fmt.Sprintf("page:%d", i)
		db[keys[i]] = []byte(keys[i])
	}
	big := bytes.Repeat([]byte("0123456789abcdef"), 24) // 24 pieces of 16 bytes
	db["big"] = big

	ascendingAllNodes := func(t *testing.T, what string, got []int) {
		t.Helper()
		if !slices.IsSorted(got) || len(slices.Compact(slices.Clone(got))) != nodes {
			t.Fatalf("%s: MultiGets went to nodes %v, want each of %d nodes once, ascending", what, got, nodes)
		}
	}

	t.Run("FetchMany", func(t *testing.T) {
		tier := newRecTier(t, nodes)
		front, err := New(Config{Coordinator: tier, DB: db})
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 20; round++ {
			tier.multiGets = tier.multiGets[:0]
			pages, err := front.FetchMany(keys...)
			if err != nil || len(pages) != len(keys) {
				t.Fatalf("round %d: %d pages, err %v", round, len(pages), err)
			}
			ascendingAllNodes(t, fmt.Sprintf("round %d", round), tier.multiGets)
		}
	})

	t.Run("gatherPieces", func(t *testing.T) {
		tier := newRecTier(t, nodes)
		front, err := New(Config{Coordinator: tier, DB: db, PieceSize: 16})
		if err != nil {
			t.Fatal(err)
		}
		if _, src, err := front.Fetch("big"); err != nil || src != SourceDatabase {
			t.Fatalf("fill: src %v, err %v", src, err)
		}
		for round := 0; round < 20; round++ {
			tier.multiGets = tier.multiGets[:0]
			data, src, err := front.Fetch("big")
			if err != nil || src != SourceNewCache || !bytes.Equal(data, big) {
				t.Fatalf("round %d: src %v, err %v, %d bytes", round, src, err, len(data))
			}
			ascendingAllNodes(t, fmt.Sprintf("round %d", round), tier.multiGets)
		}
	})
}
