// Command proteus-web runs the web tier of the paper's Fig. 1: it
// terminates HTTP page requests, routes keys to cache servers with the
// Proteus placement, implements Algorithm 2 during provisioning
// transitions, and falls back to the (simulated) database tier.
//
// Cache servers are given in the fixed provisioning order; admin
// endpoints execute provisioning decisions and drive the hot set:
//
//	GET  /page/<key>              fetch a page (PUT updates, DELETE invalidates)
//	GET  /pages?keys=k1,k2        fetch a batch of pages as JSON
//	GET  /stats                   web tier counters
//	GET  /admin/active            current active server count
//	POST /admin/active?n=3        smooth transition to 3 active servers
//	GET  /admin/hot               promoted hot keys
//	POST /admin/hot?key=k&op=...  promote or demote a key
//
// Usage:
//
//	proteus-web -cache 127.0.0.1:11211,127.0.0.1:11212 [-active 2]
//	            [-http :8080] [-ttl 45s] [-corpus-pages 100000] [-db-shards 7]
package main

import (
	"flag"
	"log"
	"net/http"
	"strings"
	"time"

	"proteus/internal/cluster"
	"proteus/internal/core"
	"proteus/internal/hotkey"
	"proteus/internal/livestack"
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
	var nodes []cluster.Node
	for _, addr := range strings.Split(*cacheList, ",") {
		if addr = strings.TrimSpace(addr); addr != "" {
			nodes = append(nodes, cluster.NewRemoteNode(addr))
		}
	}
	if len(nodes) == 0 {
		log.Fatal("at least one -cache address is required")
	}
	cfg := livestack.Config{
		CorpusPages: *corpusPages,
		TTL:         *ttl,
		Cluster: cluster.Config{
			Nodes:          nodes,
			InitialActive:  *active,
			Replicas:       *replicas,
			Backend:        backend,
			ClientMaxConns: *cacheConns,
			HotReplicas:    *hotReplicas,
		},
		DBShards:  *dbShards,
		PieceSize: *pieceSize,
		Autoscale: *autoscale,
		Capacity:  *capacity,
	}
	if *hotReplicas > 1 {
		cfg.Cluster.HotTracker = &hotkey.TrackerConfig{
			Window:       *hotWindow,
			MaxHot:       *hotMax,
			PromoteShare: *hotShare,
		}
	}
	stack, err := livestack.Build(cfg)
	if err != nil {
		log.Fatal(err)
	}

	log.Printf("serving on %s (%d cache servers, %d active, corpus %d pages)",
		*httpAddr, len(nodes), stack.Coord.Active(), stack.Corpus.Pages())
	if err := http.ListenAndServe(*httpAddr, stack.Handler); err != nil {
		log.Fatalf("http: %v", err)
	}
}
