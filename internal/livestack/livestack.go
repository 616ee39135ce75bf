// Package livestack brings up a self-contained live-plane stack on one
// machine: N in-process cache servers (real TCP loopback listeners,
// exactly what proteusd runs), a coordinator over them, a web tier,
// and an HTTP front end with the same /page, /pages and /admin/active
// surface as proteus-web. Load generators and benchmarks drive it over
// loopback HTTP, so every byte crosses real sockets twice (client→web,
// web→cache) — the full stack a saturation knee characterises.
//
// It is live-plane plumbing, deliberately outside the determinism
// contract: real listeners, real wall-clock TTLs.
package livestack

import (
	"fmt"
	"net"
	"net/http"
	"time"

	"proteus/internal/bloom"
	"proteus/internal/cache"
	"proteus/internal/cluster"
	"proteus/internal/database"
	"proteus/internal/webtier"
	"proteus/internal/wiki"
)

// Config sizes the stack. CorpusPages is required; Active == 0
// activates all Nodes; TTL defaults to a minute.
type Config struct {
	Nodes       int
	Active      int
	CorpusPages int
	TTL         time.Duration
	// NodeCacheBytes caps each server's cache (default 64 MiB).
	NodeCacheBytes int64
}

// Stack is a running live-plane stack.
type Stack struct {
	Coord  *cluster.Coordinator
	Front  *webtier.Frontend
	Corpus *wiki.Corpus
	URL    string

	locals []*cluster.LocalNode
	ln     net.Listener
	srv    *http.Server
}

// Start brings up the stack.
func Start(cfg Config) (*Stack, error) {
	if cfg.Nodes < 1 {
		return nil, fmt.Errorf("livestack needs at least 1 server, got %d", cfg.Nodes)
	}
	if cfg.Active == 0 {
		cfg.Active = cfg.Nodes
	}
	if cfg.Active < 1 || cfg.Active > cfg.Nodes {
		return nil, fmt.Errorf("active %d out of range [1, %d]", cfg.Active, cfg.Nodes)
	}
	if cfg.TTL <= 0 {
		cfg.TTL = time.Minute
	}
	if cfg.NodeCacheBytes == 0 {
		cfg.NodeCacheBytes = 64 << 20
	}
	corpus, err := wiki.New(cfg.CorpusPages, wiki.DefaultPageSize)
	if err != nil {
		return nil, fmt.Errorf("corpus: %v", err)
	}
	db, err := database.New(database.Config{Shards: 7, Corpus: corpus})
	if err != nil {
		return nil, fmt.Errorf("database: %v", err)
	}
	nodes := make([]cluster.Node, cfg.Nodes)
	locals := make([]*cluster.LocalNode, cfg.Nodes)
	for i := range nodes {
		locals[i] = cluster.NewLocalNode(
			cache.Config{MaxBytes: cfg.NodeCacheBytes},
			bloom.Params{Counters: 1 << 18, CounterBits: 4, Hashes: 4, Mode: bloom.Saturate},
		)
		nodes[i] = locals[i]
	}
	coord, err := cluster.New(cluster.Config{
		Nodes:         nodes,
		InitialActive: cfg.Active,
		TTL:           cfg.TTL,
	})
	if err != nil {
		return nil, fmt.Errorf("coordinator: %v", err)
	}
	front, err := webtier.New(webtier.Config{Coordinator: coord, DB: db})
	if err != nil {
		coord.Close()
		return nil, fmt.Errorf("frontend: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		coord.Close()
		return nil, fmt.Errorf("listen: %v", err)
	}
	mux := http.NewServeMux()
	mux.Handle("/page/", front)
	mux.Handle("/pages", front)
	mux.Handle("/stats", front)
	mux.HandleFunc("/admin/active", coord.AdminActive)
	srv := &http.Server{Handler: mux}
	//lint:allow goleak the HTTP server goroutine lives until Close, which unblocks Serve
	go func() { _ = srv.Serve(ln) }()
	return &Stack{
		Coord:  coord,
		Front:  front,
		Corpus: corpus,
		URL:    "http://" + ln.Addr().String(),
		locals: locals,
		ln:     ln,
		srv:    srv,
	}, nil
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

// Close tears the stack down: HTTP front end, coordinator, nodes.
func (s *Stack) Close() {
	_ = s.srv.Close()
	s.Coord.Close()
	for _, l := range s.locals {
		_ = l.PowerOff()
	}
}
