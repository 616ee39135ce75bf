// Autoscale: the full real-time control loop on one machine. A live
// TCP cluster (4 cache servers + web tier + simulated database) serves
// a load that ramps up and back down; the delay-feedback supervisor
// (the paper's provisioning policy role) grows and shrinks the fleet,
// and every shrink runs the smooth-transition protocol — so the
// database never sees a miss storm.
//
// Run with: go run ./examples/autoscale   (takes ~6 seconds)
package main

import (
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"proteus/internal/bloom"
	"proteus/internal/cache"
	"proteus/internal/cluster"
	"proteus/internal/database"
	"proteus/internal/metrics"
	"proteus/internal/provision"
	"proteus/internal/webtier"
	"proteus/internal/wiki"
)

func main() {
	log.SetFlags(0)

	corpus, err := wiki.New(400, 1024)
	check(err)
	db, err := database.New(database.Config{
		Shards: 3,
		Corpus: corpus,
		Latency: database.LatencyModel{
			Base: 3 * time.Millisecond, PerKB: 100 * time.Microsecond, JitterMean: 0.5,
		},
	})
	check(err)

	digest := bloom.Params{Counters: 1 << 16, CounterBits: 4, Hashes: 4}
	nodes := make([]cluster.Node, 4)
	for i := range nodes {
		nodes[i] = cluster.NewLocalNode(cache.Config{MaxBytes: 32 << 20}, digest)
	}
	coord, err := cluster.New(cluster.Config{
		Nodes:         nodes,
		InitialActive: 2,
		TTL:           1500 * time.Millisecond,
	})
	check(err)
	defer coord.Close()

	front, err := webtier.New(webtier.Config{Coordinator: coord, DB: db})
	check(err)

	// Per-slot measurement window feeding the supervisor.
	var (
		windowMu sync.Mutex
		window   metrics.Histogram
	)
	policy := provision.LegacyController{
		Reference:         15 * time.Millisecond,
		Bound:             30 * time.Millisecond,
		PerServerCapacity: 400, // ~400 req/s per server
		Min:               1,
		Max:               4,
	}
	sup, err := cluster.NewSupervisor(cluster.SupervisorConfig{
		Coordinator: coord,
		Policy:      policy,
		Every:       500 * time.Millisecond,
		Sample: func() cluster.Sample {
			windowMu.Lock()
			defer windowMu.Unlock()
			s := cluster.Sample{
				Delay: window.Quantile(0.999),
				Rate:  float64(window.Count()) / 0.5,
			}
			window.Reset()
			return s
		},
	})
	check(err)
	sup.Start()
	defer sup.Stop()

	// Load generator: target request rate ramps 300 -> 1200 -> 300 rps.
	var targetRate atomic.Int64
	targetRate.Store(300)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			i := w
			for {
				select {
				case <-stop:
					return
				default:
				}
				start := time.Now()
				_, _, err := front.Fetch(corpus.Key(i % corpus.Pages()))
				if err == nil {
					windowMu.Lock()
					window.Observe(time.Since(start))
					windowMu.Unlock()
				}
				i += 17
				// Pace the 16 workers to the target aggregate rate.
				per := time.Duration(float64(time.Second) * 16 / float64(targetRate.Load()))
				time.Sleep(per)
			}
		}(w)
	}

	fmt.Println("t(s)  rate(target)  active  p99.9(last slot)")
	phases := []struct {
		rate int64
		hold time.Duration
	}{
		{300, 1500 * time.Millisecond},
		{1200, 2 * time.Second},
		{300, 2 * time.Second},
	}
	begin := time.Now()
	for _, ph := range phases {
		targetRate.Store(ph.rate)
		deadline := time.Now().Add(ph.hold)
		for time.Now().Before(deadline) {
			time.Sleep(500 * time.Millisecond)
			windowMu.Lock()
			p := window.Quantile(0.999)
			windowMu.Unlock()
			fmt.Printf("%4.1f  %12d  %6d  %v\n",
				time.Since(begin).Seconds(), ph.rate, coord.Active(), p.Truncate(100*time.Microsecond))
		}
	}
	close(stop)
	wg.Wait()

	s := front.Stats()
	fmt.Printf("\nweb tier: hits=%d migrated=%d db=%d errors=%d\n",
		s.Hits, s.Migrated, s.DBFetches, s.Errors)
	fmt.Println("(the fleet grew for the burst and shrank afterwards; shrinks ran the")
	fmt.Println(" smooth-transition protocol, so `migrated` absorbed the re-mapped keys)")
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
