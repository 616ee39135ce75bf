// Package livestack builds the live plane's Fig. 1 deployment — one
// web tier over one cache tier over one database — in two layers. The
// cluster layer (livecluster) runs the cache servers and the
// coordinator; Start puts the corpus, the database, the web tier and
// the HTTP routes on top:
//
//	/page/<key>    GET, PUT, DELETE one page (webtier.Frontend)
//	/pages?keys=   GET a batch of pages as JSON
//	/stats         web tier counters
//	/admin/active  GET the active-server count, POST ?n=<k> to flip it
//	/admin/hot     GET the hot set, POST ?key=<k>&op=promote|demote
//
// proteus-web serves this stack over remote cache servers; load
// generators and benchmarks drive it over loopback HTTP with in-process
// servers, so every byte crosses real sockets twice (client→web,
// web→cache) — the full stack a saturation knee characterises.
//
// It is live-plane plumbing, deliberately outside the determinism
// contract: real listeners, real wall-clock TTLs.
package livestack

import (
	"fmt"
	"log"
	"net"
	"net/http"
	"sync"
	"time"

	"proteus/internal/cluster"
	"proteus/internal/database"
	"proteus/internal/livestack/livecluster"
	"proteus/internal/metrics"
	"proteus/internal/provision"
	"proteus/internal/webtier"
	"proteus/internal/wiki"
)

// Config sizes the stack; see livecluster.Config. CorpusPages is
// required.
type Config = livecluster.Config

// Stack is a live-plane stack; Start also serves it at URL.
type Stack struct {
	Coord  *cluster.Coordinator
	Front  *webtier.Frontend
	Corpus *wiki.Corpus
	URL    string
	// Handler is the route table.
	Handler http.Handler

	cacheTier *livecluster.Cluster
	sup       *cluster.Supervisor
	srv       *http.Server
}

// Build assembles the stack without serving it; Close tears it down.
func Build(cfg Config) (*Stack, error) {
	if cfg.DBShards == 0 {
		cfg.DBShards = 7
	}
	corpus, err := wiki.New(cfg.CorpusPages, wiki.DefaultPageSize)
	if err != nil {
		return nil, fmt.Errorf("corpus: %v", err)
	}
	db, err := database.New(database.Config{Shards: cfg.DBShards, Corpus: corpus})
	if err != nil {
		return nil, fmt.Errorf("database: %v", err)
	}
	c, err := livecluster.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("coordinator: %v", err)
	}
	s := &Stack{Coord: c.Coord, Corpus: corpus, cacheTier: c}
	s.Front, err = webtier.New(webtier.Config{Coordinator: c.Coord, DB: db, PieceSize: cfg.PieceSize})
	if err != nil {
		s.Close()
		return nil, fmt.Errorf("frontend: %v", err)
	}
	pages := http.Handler(s.Front)
	if cfg.Autoscale > 0 {
		if pages, err = s.autoscale(cfg); err != nil {
			s.Close()
			return nil, err
		}
	}
	mux := http.NewServeMux()
	mux.Handle("/page/", pages)
	mux.Handle("/pages", pages)
	mux.Handle("/stats", s.Front)
	mux.HandleFunc("/admin/active", s.Coord.AdminActive)
	mux.HandleFunc("/admin/hot", s.Coord.AdminHot)
	s.Handler = mux
	return s, nil
}

// Start builds the stack and serves it on a loopback port.
func Start(cfg Config) (*Stack, error) {
	s, err := Build(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.Close()
		return nil, fmt.Errorf("listen: %v", err)
	}
	s.URL = "http://" + ln.Addr().String()
	s.srv = &http.Server{Handler: s.Handler}
	//lint:allow goleak the HTTP server goroutine lives until Close, which unblocks Serve
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// autoscale starts the delay-feedback supervisor with the paper's
// evaluation policy — a 0.4 s reference under a 0.5 s delay bound —
// fed by a per-slot latency window over the page routes, and returns
// the handler that measures that window.
func (s *Stack) autoscale(cfg Config) (http.Handler, error) {
	var (
		mu     sync.Mutex
		window metrics.Histogram
	)
	policy := provision.LegacyController{
		Reference:         400 * time.Millisecond,
		Bound:             500 * time.Millisecond,
		PerServerCapacity: cfg.Capacity,
		Min:               1,
		Max:               s.Coord.Backend().Servers(),
	}
	sup, err := cluster.NewSupervisor(cluster.SupervisorConfig{
		Coordinator: s.Coord,
		Policy:      policy,
		Every:       cfg.Autoscale,
		Logger:      log.Default(),
		Sample: func() cluster.Sample {
			mu.Lock()
			defer mu.Unlock()
			sample := cluster.Sample{
				Delay: window.Quantile(0.999),
				Rate:  float64(window.Count()) / cfg.Autoscale.Seconds(),
			}
			window.Reset()
			return sample
		},
	})
	if err != nil {
		return nil, fmt.Errorf("supervisor: %v", err)
	}
	sup.Start()
	s.sup = sup
	log.Printf("autoscaling every %v (%s %+v)", cfg.Autoscale, policy.Name(), policy)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.Front.ServeHTTP(w, r)
		mu.Lock()
		window.Observe(time.Since(start))
		mu.Unlock()
	}), nil
}

// Prewarm fetches every corpus page once through the web tier with the
// given concurrency, so the whole corpus lands in the active caches
// before a measurement starts. Saturation sweeps call this first:
// without it the modelled DB miss latency (~12 ms) dominates the p99
// of every early sweep point and the knee measures cache-fill, not the
// stack.
func (s *Stack) Prewarm(concurrency int) error {
	if concurrency < 1 {
		concurrency = 1
	}
	n := s.Corpus.Pages()
	errs := make(chan error, concurrency)
	for w := 0; w < concurrency; w++ {
		go func(w int) {
			for i := w; i < n; i += concurrency {
				if _, _, err := s.Front.Fetch(s.Corpus.Key(i)); err != nil {
					errs <- fmt.Errorf("prewarm %s: %w", s.Corpus.Key(i), err)
					return
				}
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < concurrency; w++ {
		if err := <-errs; err != nil {
			return err
		}
	}
	return nil
}

// Close tears the stack down: HTTP server, supervisor, coordinator,
// in-process nodes.
func (s *Stack) Close() {
	if s.srv != nil {
		_ = s.srv.Close()
	}
	if s.sup != nil {
		s.sup.Stop()
	}
	s.cacheTier.Close()
}
