// Command proteus-web runs the web tier of the paper's Fig. 1: it
// terminates HTTP page requests, routes keys to cache servers with the
// Proteus placement, implements Algorithm 2 during provisioning
// transitions, and falls back to the (simulated) database tier.
//
// Cache servers are given in the fixed provisioning order; an admin
// endpoint executes provisioning decisions:
//
//	GET  /page/<key>        fetch a page
//	GET  /stats             web tier counters
//	GET  /admin/active      current active server count
//	POST /admin/active?n=3  smooth transition to 3 active servers
//
// Usage:
//
//	proteus-web -cache 127.0.0.1:11211,127.0.0.1:11212 [-active 2]
//	            [-http :8080] [-ttl 45s] [-corpus-pages 100000] [-db-shards 7]
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"strings"
	"sync"
	"time"

	"proteus/internal/cluster"
	"proteus/internal/core"
	"proteus/internal/database"
	"proteus/internal/hotkey"
	"proteus/internal/metrics"
	"proteus/internal/provision"
	"proteus/internal/webtier"
	"proteus/internal/wiki"
)

func main() {
	log.SetFlags(log.LstdFlags)
	log.SetPrefix("proteus-web: ")

	cacheList := flag.String("cache", "", "comma-separated cache server addresses in provisioning order (required)")
	active := flag.Int("active", 0, "initially active cache servers (0 = all)")
	httpAddr := flag.String("http", ":8080", "HTTP listen address")
	ttl := flag.Duration("ttl", 45*time.Second, "hot-data window / transition deadline")
	corpusPages := flag.Int("corpus-pages", 100000, "synthetic Wikipedia corpus size")
	dbShards := flag.Int("db-shards", 7, "database shards")
	replicas := flag.Int("replicas", 1, "replication factor (Section III-E rings)")
	backendName := flag.String("backend", "proteus", "placement backend: proteus (Algorithm 1), pch, or jump — must match across every web server")
	pieceSize := flag.Int("piece-size", 0, "split values larger than this into fixed-size pieces (0 = whole objects)")
	autoscale := flag.Duration("autoscale", 0, "run the delay-feedback provisioning loop with this slot width (0 = manual /admin/active only)")
	capacity := flag.Float64("capacity", 200, "per-cache-server capacity estimate in req/s (autoscale feed-forward)")
	cacheConns := flag.Int("cache-conns", 0, "connection pool size per cache server (0 = client default)")
	hotReplicas := flag.Int("hot-replicas", 0, "replica depth for promoted hot keys (0 = off)")
	hotWindow := flag.Uint64("hot-window", 4096, "hot-key tracker observations per decision window")
	hotMax := flag.Int("hot-max", 16, "hot-key tracker promoted-set bound")
	hotShare := flag.Float64("hot-share", 0.01, "minimum share of a window to promote a key")
	flag.Parse()

	backend, err := core.ParseBackend(*backendName)
	if err != nil {
		log.Fatal(err)
	}

	addrs := splitNonEmpty(*cacheList)
	if len(addrs) == 0 {
		log.Fatal("at least one -cache address is required")
	}
	if *active == 0 {
		*active = len(addrs)
	}

	corpus, err := wiki.New(*corpusPages, wiki.DefaultPageSize)
	if err != nil {
		log.Fatalf("corpus: %v", err)
	}
	db, err := database.New(database.Config{Shards: *dbShards, Corpus: corpus})
	if err != nil {
		log.Fatalf("database: %v", err)
	}

	nodes := make([]cluster.Node, len(addrs))
	for i, addr := range addrs {
		nodes[i] = cluster.NewRemoteNode(addr)
	}
	cfg := cluster.Config{
		Nodes:          nodes,
		InitialActive:  *active,
		TTL:            *ttl,
		Replicas:       *replicas,
		Backend:        backend,
		ClientMaxConns: *cacheConns,
		HotReplicas:    *hotReplicas,
	}
	if *hotReplicas > 1 {
		cfg.HotTracker = &hotkey.TrackerConfig{
			Window:       *hotWindow,
			MaxHot:       *hotMax,
			PromoteShare: *hotShare,
		}
	}
	coord, err := cluster.New(cfg)
	if err != nil {
		log.Fatalf("coordinator: %v", err)
	}
	defer coord.Close()

	front, err := webtier.New(webtier.Config{Coordinator: coord, DB: db, PieceSize: *pieceSize})
	if err != nil {
		log.Fatalf("frontend: %v", err)
	}

	// Per-slot measurement window for the autoscaler.
	var (
		windowMu sync.Mutex
		window   metrics.Histogram
	)
	measured := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		front.ServeHTTP(w, r)
		windowMu.Lock()
		window.Observe(time.Since(start))
		windowMu.Unlock()
	})

	if *autoscale > 0 {
		// The paper's evaluation policy: a 0.4 s reference under a 0.5 s
		// delay bound.
		policy := provision.LegacyController{
			Reference:         400 * time.Millisecond,
			Bound:             500 * time.Millisecond,
			PerServerCapacity: *capacity,
			Min:               1,
			Max:               len(addrs),
		}
		sup, err := cluster.NewSupervisor(cluster.SupervisorConfig{
			Coordinator: coord,
			Policy:      policy,
			Every:       *autoscale,
			Logger:      log.Default(),
			Sample: func() cluster.Sample {
				windowMu.Lock()
				defer windowMu.Unlock()
				s := cluster.Sample{
					Delay: window.Quantile(0.999),
					Rate:  float64(window.Count()) / autoscale.Seconds(),
				}
				window.Reset()
				return s
			},
		})
		if err != nil {
			log.Fatalf("supervisor: %v", err)
		}
		sup.Start()
		defer sup.Stop()
		log.Printf("autoscaling every %v (%s %+v)", *autoscale, policy.Name(), policy)
	}

	mux := http.NewServeMux()
	mux.Handle("/page/", measured)
	mux.Handle("/pages", measured)
	mux.Handle("/stats", front)
	mux.HandleFunc("/admin/active", coord.AdminActive)

	mux.HandleFunc("/admin/hot", func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodGet:
			for _, k := range coord.HotKeys() {
				fmt.Fprintln(w, k)
			}
		case http.MethodPost:
			key := r.URL.Query().Get("key")
			if key == "" {
				http.Error(w, "missing key", http.StatusBadRequest)
				return
			}
			switch op := r.URL.Query().Get("op"); op {
			case "", "promote":
				fmt.Fprintf(w, "hot %v\n", coord.Promote(key))
			case "demote":
				fmt.Fprintf(w, "demoted %v\n", coord.Demote(key))
			default:
				http.Error(w, "bad op", http.StatusBadRequest)
			}
		default:
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		}
	})

	log.Printf("serving on %s (%d cache servers, %d active, corpus %d pages)",
		*httpAddr, len(addrs), coord.Active(), corpus.Pages())
	if err := http.ListenAndServe(*httpAddr, mux); err != nil {
		log.Fatalf("http: %v", err)
	}
}

func splitNonEmpty(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
