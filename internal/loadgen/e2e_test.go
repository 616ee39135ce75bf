package loadgen_test

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"proteus/internal/cluster"
	"proteus/internal/database"
	"proteus/internal/livestack/livecluster"
	"proteus/internal/loadgen"
	"proteus/internal/webtier"
	"proteus/internal/wiki"
)

// wallClock mirrors the command's live-plane clock; tests are outside
// the determinism lint's scope, and an e2e run is exactly the wall
// clock's legitimate boundary.
type wallClock struct{ start time.Time }

func (c *wallClock) Now() time.Duration { return time.Since(c.start) }
func (c *wallClock) WaitUntil(t time.Duration) {
	if d := t - c.Now(); d > 0 {
		time.Sleep(d)
	}
}

// TestOpenLoopAcrossTransitions is the end-to-end battery: a
// livecluster live plane behind the real web-tier HTTP surface takes
// open-loop load while the active-server count flips n→n+1 and then
// back n+1→n mid-run. The client must see zero errors — Proteus
// transitions are supposed to be invisible — and the worst
// flip-window interval p99 must stay within a stated multiple of the
// pre-flip baseline, with latency charged from intended start so the
// flip cannot hide behind generator back-off. Runs under -race in CI.
func TestOpenLoopAcrossTransitions(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e load test")
	}
	env := livecluster.Start(t, livecluster.Config{
		Nodes:   4,
		TTL:     time.Minute,
		Cluster: cluster.Config{InitialActive: 3},
	})
	corpus, err := wiki.New(2000, wiki.DefaultPageSize)
	if err != nil {
		t.Fatal(err)
	}
	// Instant DB sleeps: the e2e battery measures transition behaviour,
	// not the modelled MySQL tail, and must stay fast under -race.
	db, err := database.New(database.Config{Shards: 3, Corpus: corpus, Sleep: func(time.Duration) {}})
	if err != nil {
		t.Fatal(err)
	}
	front, err := webtier.New(webtier.Config{Coordinator: env.Coord, DB: db})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(front)
	defer srv.Close()

	client := srv.Client()
	client.Timeout = 5 * time.Second
	do := func(op loadgen.Op) error {
		switch op.Kind {
		case loadgen.OpGet:
			return httpGet(client, srv.URL+"/page/"+url.PathEscape(op.Keys[0]))
		case loadgen.OpSet:
			body, ok := corpus.PageByKey(op.Keys[0])
			if !ok {
				return fmt.Errorf("key %q not in corpus", op.Keys[0])
			}
			req, err := http.NewRequest(http.MethodPut, srv.URL+"/page/"+url.PathEscape(op.Keys[0]), bytes.NewReader(body))
			if err != nil {
				return err
			}
			resp, err := client.Do(req)
			if err != nil {
				return err
			}
			defer resp.Body.Close()
			_, _ = io.Copy(io.Discard, resp.Body)
			if resp.StatusCode/100 != 2 {
				return fmt.Errorf("PUT: %s", resp.Status)
			}
			return nil
		case loadgen.OpMultiGet:
			return httpGet(client, srv.URL+"/pages?keys="+url.QueryEscape(strings.Join(op.Keys, ",")))
		}
		return fmt.Errorf("unknown kind %v", op.Kind)
	}

	const interval = 300 * time.Millisecond
	clock := &wallClock{start: time.Now()}
	cfg := loadgen.Config{
		Workers:   4,
		Duration:  2400 * time.Millisecond,
		Arrivals:  loadgen.Poisson{Rate: 300},
		Keys:      corpus,
		ZipfAlpha: 0.99,
		Seed:      11,
		Interval:  interval,
		Clock:     clock,
		Do:        do,
	}
	r, err := loadgen.NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Scale up at 0.8s (3→4), back down at 1.6s (4→3), both while the
	// generator keeps its fixed arrival timeline.
	flips := []struct {
		at time.Duration
		n  int
	}{{800 * time.Millisecond, 4}, {1600 * time.Millisecond, 3}}
	var flipErrs atomic.Uint64
	go func() {
		for _, f := range flips {
			if d := f.at - clock.Now(); d > 0 {
				time.Sleep(d)
			}
			if err := env.Coord.SetActive(f.n); err != nil {
				flipErrs.Add(1)
			}
		}
	}()

	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if n := flipErrs.Load(); n > 0 {
		t.Fatalf("%d SetActive call(s) failed", n)
	}
	if got := env.Coord.Active(); got != 3 {
		t.Fatalf("active count after both flips: %d, want 3", got)
	}
	if res.Errors != 0 {
		t.Fatalf("client saw %d errors across the transitions, want 0", res.Errors)
	}
	if res.Issued < res.Scheduled/2 {
		t.Fatalf("issued only %d of %d scheduled ops", res.Issued, res.Scheduled)
	}

	// Baseline: median interval p99 strictly before the first flip,
	// skipping the cold-cache interval 0. Bound: no flip-window interval
	// p99 beyond maxRatio× the baseline (floored at 1ms so a
	// microsecond-fast baseline doesn't make scheduler noise a failure).
	const maxRatio = 50.0
	var pre []time.Duration
	for _, iv := range res.Intervals {
		if iv.Start == 0 || iv.Start+interval > flips[0].at {
			continue
		}
		if iv.Hist.Count() > 0 {
			pre = append(pre, iv.Hist.Quantile(0.99))
		}
	}
	if len(pre) == 0 {
		t.Fatal("no pre-flip intervals to baseline against")
	}
	baseline := pre[len(pre)/2]
	if floor := time.Millisecond; baseline < floor {
		baseline = floor
	}
	for _, f := range flips {
		for _, iv := range res.Intervals {
			if iv.Start+interval <= f.at || iv.Start > f.at+3*interval || iv.Hist.Count() == 0 {
				continue
			}
			p99 := iv.Hist.Quantile(0.99)
			if ratio := float64(p99) / float64(baseline); ratio > maxRatio {
				t.Errorf("flip at %v to %d: interval %v p99 %v is %.1fx the %v baseline (bound %.0fx)",
					f.at, f.n, iv.Start, p99, ratio, baseline, maxRatio)
			}
		}
	}
}

func httpGet(client *http.Client, u string) error {
	resp, err := client.Get(u)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET: %s", resp.Status)
	}
	return nil
}
