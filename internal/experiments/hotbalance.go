package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"proteus/internal/core"
	"proteus/internal/hotkey"
	"proteus/internal/workload"
)

// HotBalanceResult is the hot-key replication load-balance experiment:
// a Zipf(0.99) request stream routed over 10 servers, once with every
// key on its single ring-0 owner (the Fig. 5 skew problem — the
// server owning rank-1 absorbs a disproportionate share) and once with
// the hottest keys replicated at depth R and each request routed to
// the less-loaded of its two owners. The figure of merit is the
// max/min per-server request ratio: 1.0 is perfect balance.
type HotBalanceResult struct {
	Scale    Scale
	Servers  int
	Keys     int
	Requests int
	Alpha    float64
	Replicas int
	// HotKeys is how many keys the online sketch promoted.
	HotKeys int
	// Per-server request counts under each policy.
	PrimaryLoad    []int
	ReplicatedLoad []int
	// Max/min load ratios (the Fig. 5 comparison).
	PrimaryRatio    float64
	ReplicatedRatio float64
}

// HotBalance runs the experiment. Promotion is online: a space-saving
// sketch watches the stream and the top keys whose estimated share
// clears 2x the fair per-server share are promoted, exactly the
// signal the coordinator's tracker acts on.
func HotBalance(scale Scale) (*HotBalanceResult, error) {
	if err := scale.validate(); err != nil {
		return nil, err
	}
	const (
		servers  = 10
		nkeys    = 10000
		alpha    = 0.99
		replicas = 2
	)
	requests := 200000
	if scale.Name == "full" {
		requests = 2000000
	}

	rng := rand.New(rand.NewSource(scale.Seed))
	zipf, err := workload.NewZipf(rng, alpha, nkeys)
	if err != nil {
		return nil, err
	}
	replicated, err := core.NewReplicated(servers, replicas)
	if err != nil {
		return nil, err
	}
	keys := make([]string, nkeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("page:%d", i)
	}
	draws := make([]int, requests)
	for i := range draws {
		draws[i] = zipf.Next()
	}

	// Pass 1: primary-only routing.
	primary := make([]int, servers)
	for _, d := range draws {
		primary[replicated.OwnerOnRing(keys[d], 0, servers)]++
	}

	// Pass 2: online promotion + two-choices among the replicas. The
	// sketch promotes a key once its estimated share of the stream
	// clears twice the fair per-server share — the same threshold shape
	// the coordinator's tracker uses.
	sketch := hotkey.NewSketch(64)
	hot := make(map[string]bool)
	repl := make([]int, servers)
	threshold := func(seen int) uint64 {
		return uint64(2*seen/servers + 1)
	}
	for i, d := range draws {
		k := keys[d]
		sketch.Observe(k)
		if !hot[k] {
			if est, _, tracked := sketch.Count(k); tracked && est >= threshold(i+1) {
				hot[k] = true
			}
		}
		if hot[k] {
			owners := replicated.DistinctOwnersN(nil, k, servers, replicas)
			pick := owners[0]
			for _, o := range owners[1:] {
				if repl[o] < repl[pick] {
					pick = o
				}
			}
			repl[pick]++
		} else {
			repl[replicated.OwnerOnRing(k, 0, servers)]++
		}
	}

	out := &HotBalanceResult{
		Scale:           scale,
		Servers:         servers,
		Keys:            nkeys,
		Requests:        requests,
		Alpha:           alpha,
		Replicas:        replicas,
		HotKeys:         len(hot),
		PrimaryLoad:     primary,
		ReplicatedLoad:  repl,
		PrimaryRatio:    maxMinRatio(primary),
		ReplicatedRatio: maxMinRatio(repl),
	}
	return out, nil
}

func maxMinRatio(load []int) float64 {
	min, max := load[0], load[0]
	for _, l := range load[1:] {
		if l < min {
			min = l
		}
		if l > max {
			max = l
		}
	}
	if min == 0 {
		min = 1
	}
	return float64(max) / float64(min)
}

// Render prints the Fig. 5-style load-ratio comparison.
func (r *HotBalanceResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Hot-key balance — Zipf(%.2f) over %d servers, %d requests (%s scale)\n",
		r.Alpha, r.Servers, r.Requests, r.Scale.Name)
	fmt.Fprintf(&b, "online sketch promoted %d keys to replica depth %d\n", r.HotKeys, r.Replicas)
	fmt.Fprintf(&b, "%-22s %-12s %-12s\n", "policy", "max load", "max/min")
	fmt.Fprintf(&b, "%-22s %-12d %-12.2f\n", "primary-only", maxOf(r.PrimaryLoad), r.PrimaryRatio)
	fmt.Fprintf(&b, "%-22s %-12d %-12.2f\n",
		fmt.Sprintf("R=%d two-choices", r.Replicas), maxOf(r.ReplicatedLoad), r.ReplicatedRatio)
	b.WriteString("(replicating the head of the Zipf curve splits each hot key's\n" +
		" traffic across two owners; two-choices keeps the split even)\n")
	return b.String()
}

func maxOf(load []int) int {
	max := load[0]
	for _, l := range load[1:] {
		if l > max {
			max = l
		}
	}
	return max
}
