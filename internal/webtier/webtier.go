// Package webtier is the web-server tier of the paper's Fig. 1: it
// terminates user requests, routes data keys to cache servers through
// the cluster coordinator's deterministic placement, and implements
// Algorithm 2 (data retrieval) against a CacheTier — try the new owner,
// consult the old owner's digest during a transition, fall back to the
// database, and write through so only the first request for a hot key
// pays the migration cost. The tier is memcached-protocol servers
// behind cluster.Coordinator in production and the simulator's
// in-memory fleet under the conformance checker; this is the only
// untimed Algorithm 2 in the tree, and the package is replay-critical.
package webtier

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"proteus/internal/chunk"
	"proteus/internal/memproto"
	"proteus/internal/telemetry"
	"proteus/internal/transition"
)

// Backing is the database tier interface (satisfied by *database.DB).
type Backing interface {
	Get(key string) ([]byte, error)
}

// CacheTier is what the front end needs from the cache tier: the
// current routing epoch, the write fan-out rule, the hot-key feed, and
// the data operations of one server addressed by its index in the
// provisioning order. An error from a data operation means "unreachable
// right now" and degrades that step; it never fails a request.
// *cluster.Coordinator satisfies it over protocol clients, sim.Tier
// over in-memory stores.
type CacheTier interface {
	// Epoch returns the current routing state; a request loads it once.
	Epoch() *transition.Epoch
	// Fanout applies write to every distinct owner of key under e and
	// demotes a hot key that missed a copy (transition.Machine.Fanout).
	Fanout(e *transition.Epoch, key string, write func(owner int) bool)
	// ObserveGet feeds one read into online hot-key detection, if any.
	ObserveGet(key string)
	// Get reads one server's value for key. buf is scratch space the
	// tier may read the value into, so the value may alias buf: a
	// caller lends only a buffer it owns until it is done with the
	// value, and passes nil when the value outlives the request.
	Get(node int, key string, buf []byte) (value []byte, found bool, err error)
	// Set stores without expiry.
	Set(node int, key string, value []byte) error
	Delete(node int, key string) (existed bool, err error)
	MultiGet(node int, keys ...string) (map[string][]byte, error)
	// LoadEstimate scores the server's current load for replica choice;
	// lower is idler.
	LoadEstimate(node int) float64
}

// Source reports where a fetch was satisfied.
type Source int

const (
	// SourceNewCache is a hit on the key's current owner.
	SourceNewCache Source = iota + 1
	// SourceOldCache is an Algorithm 2 on-demand migration from the
	// previous owner during a transition.
	SourceOldCache
	// SourceDatabase is a full miss served by the database tier.
	SourceDatabase
)

func (s Source) String() string {
	switch s {
	case SourceNewCache:
		return "cache"
	case SourceOldCache:
		return "old-cache"
	case SourceDatabase:
		return "database"
	default:
		return fmt.Sprintf("Source(%d)", int(s))
	}
}

// Stats counts fetch outcomes.
type Stats struct {
	Hits           uint64 // new-owner hits (any ring)
	ReplicaHits    uint64 // of Hits, those served by ring > 0
	Migrated       uint64 // served and migrated from the old owner
	DigestFalsePos uint64 // digest said hot, old owner missed
	DBFetches      uint64
	PieceRepairs   uint64 // chunked object rebuilt after losing a piece
	Collapsed      uint64 // concurrent misses collapsed into one DB query
	// CacheErrors counts cache-tier faults the frontend absorbed by
	// degrading (skipped write-through, failed migration install, ring
	// fallthrough to the DB). They cost latency or a future miss, never
	// a wrong answer.
	CacheErrors uint64
	// Errors counts client-visible failures: the database path failed,
	// so the request itself errored.
	Errors uint64
}

// Config configures a Frontend.
type Config struct {
	// Coordinator supplies routing and per-node data operations
	// (required); in production a *cluster.Coordinator.
	Coordinator CacheTier
	// DB is the backing store (required).
	DB Backing
	// PieceSize enables the paper's fixed-size-piece model: values
	// longer than this are split into PieceSize-byte pieces, each
	// cached under its own key (and therefore on its own server), with
	// a manifest under the original key. 0 stores whole objects.
	PieceSize int
	// Telemetry receives the frontend's outcome counters
	// (proteus_webtier_events_total{kind}). Optional: with a nil
	// registry the counters still work (Stats reads them) but are not
	// exported.
	Telemetry *telemetry.Registry
	// Tracer records one span per Fetch with key and source attributes.
	// Optional.
	Tracer *telemetry.Tracer
	// Events receives amortized-migration hit/miss events (the digest
	// consult outcomes of Algorithm 2 lines 6-8). Optional.
	Events *telemetry.EventLog
}

// Frontend answers data requests. It is safe for concurrent use.
type Frontend struct {
	coord     CacheTier
	db        Backing
	pieceSize int

	// Outcome counters, one series per kind of the
	// proteus_webtier_events_total family. Registry counters are
	// atomic, so the hot path takes no locks.
	hits        *telemetry.Counter
	replicaHits *telemetry.Counter
	migrated    *telemetry.Counter
	falsePos    *telemetry.Counter
	dbGets      *telemetry.Counter
	repairs     *telemetry.Counter
	collapsed   *telemetry.Counter
	cacheErrs   *telemetry.Counter
	errs        *telemetry.Counter

	tracer *telemetry.Tracer
	events *telemetry.EventLog

	flights flightGroup
}

// New builds a Frontend.
func New(cfg Config) (*Frontend, error) {
	if cfg.Coordinator == nil {
		return nil, errors.New("webtier: coordinator required")
	}
	if cfg.DB == nil {
		return nil, errors.New("webtier: backing store required")
	}
	if cfg.PieceSize < 0 {
		return nil, errors.New("webtier: PieceSize must be >= 0")
	}
	f := &Frontend{
		coord:     cfg.Coordinator,
		db:        cfg.DB,
		pieceSize: cfg.PieceSize,
		tracer:    cfg.Tracer,
		events:    cfg.Events,
	}
	ev := cfg.Telemetry.Counter("proteus_webtier_events_total",
		"fetch outcomes by kind (Algorithm 2 accounting)", "kind")
	f.hits = ev.With("hit")
	f.replicaHits = ev.With("replica_hit")
	f.migrated = ev.With("migrated")
	f.falsePos = ev.With("digest_false_pos")
	f.dbGets = ev.With("db_fetch")
	f.repairs = ev.With("piece_repair")
	f.collapsed = ev.With("collapsed")
	f.cacheErrs = ev.With("cache_error")
	f.errs = ev.With("error")
	return f, nil
}

// Fetch implements Algorithm 2 for one key. With replication enabled
// (Section III-E) the rings are read in order: a hit on any replica
// serves the request, and an unreachable server simply degrades to the
// next ring — the fault-tolerance behaviour the paper describes. With
// PieceSize set, large values are stored as fixed-size pieces under
// derived keys (the paper's basic-unit assumption) and reassembled
// here.
func (f *Frontend) Fetch(key string) ([]byte, Source, error) {
	return f.fetchInto(key, nil)
}

// fetchInto is Fetch lending buf to the cache tier's first read (see
// CacheTier.Get): a hit on a current owner may come back in buf. Any
// other answer — a migration, a database fill, a flight shared with
// other requests — is a slice of its own.
func (f *Frontend) fetchInto(key string, buf []byte) ([]byte, Source, error) {
	sp := f.tracer.Start("webtier.fetch")
	sp.SetAttr("key", key)
	data, src, err := f.fetch(key, buf)
	if err != nil {
		sp.SetAttr("source", "error")
	} else {
		sp.SetAttr("source", src.String())
	}
	sp.End()
	return data, src, err
}

func (f *Frontend) fetch(key string, buf []byte) ([]byte, Source, error) {
	f.coord.ObserveGet(key)
	// One routing epoch per request: every decision below — owners, hot
	// status, the open window and its digests — is read from the same
	// instant.
	ep := f.coord.Epoch()
	if raw, src, ok := f.cacheFetch(ep, key, buf); ok {
		if f.pieceSize > 0 && chunk.IsManifest(raw) {
			if data, ok := f.gatherPieces(ep, key, raw); ok {
				return data, src, nil
			}
			// A piece went missing (evicted or lost to a crash):
			// rebuild the whole object from the database.
			f.repairs.Inc()
		} else {
			return raw, src, nil
		}
	}

	// Lines 9-12: the database tier; concurrent misses for one key
	// collapse into a single query (dog-pile protection), and the
	// winner writes through so the key regains its full copy (and
	// piece) set.
	data, err, shared := f.flights.do(key, func() ([]byte, error) {
		// Double-check before the database: a stampeder that missed in
		// the cache while an earlier flight was in progress can reach
		// here only after that flight completed — and its write-through
		// with it — so one probe of the primary keeps the whole
		// stampede at a single database query. The value goes to every
		// collapsed waiter, so it is never read into a lent buffer.
		if raw, ok, err := f.coord.Get(ep.Owner(key, 0), key, nil); err == nil && ok {
			if f.pieceSize == 0 || !chunk.IsManifest(raw) {
				return raw, nil
			}
			if full, ok := f.gatherPieces(ep, key, raw); ok {
				return full, nil
			}
		}
		data, err := f.db.Get(key)
		if err != nil {
			return nil, err
		}
		f.dbGets.Inc()
		f.writeThrough(ep, key, data)
		return data, nil
	})
	if shared {
		f.collapsed.Inc()
	}
	if err != nil {
		f.errs.Inc()
		return nil, SourceDatabase, fmt.Errorf("webtier: fetch %q: %w", key, err)
	}
	return data, SourceDatabase, nil
}

// cacheFetch runs Algorithm 2 against the cache tier only (lines 2-8),
// reporting whether any server produced the value. It reads in two
// phases. Phase 1 probes the key's distinct current owners, least
// loaded first — power-of-two-choices generalized to the replica set;
// cold keys have one owner and skip the ordering. The replica
// invariant (a hot key's owners never hold *different* values; a
// missing copy just falls through) makes the answer independent of
// probe order, so load-aware routing moves work, never meaning. Phase
// 2 consults the old owners' digests ring by ring during a transition
// and amortized-migrates a hit onto that ring's new owner. Only phase 1
// reads into buf: a migrated value is handed to Set, and a store may
// keep the slice it is given.
func (f *Frontend) cacheFetch(ep *transition.Epoch, key string, buf []byte) ([]byte, Source, bool) {
	// Phase 1: current owners. A transport error (crashed or
	// partitioned server, open circuit breaker) degrades to the next
	// replica and ultimately the database — never to a client error.
	// The owners are routed into a stack array: a hit allocates nothing
	// here.
	var route [4]int
	owners := ep.AppendOwners(route[:0], key)
	primary := owners[0]
	if len(owners) > 1 && ep.IsHot(key) {
		// Load-aware ordering applies to promoted keys only: Section
		// III-E base replicas keep deterministic ring order (the load
		// signal is wall-clock and would make replica choice — and the
		// ReplicaHits accounting — nondeterministic for every key).
		owners = f.orderByLoad(owners)
	}
	for _, owner := range owners {
		if data, ok, err := f.coord.Get(owner, key, buf); err == nil && ok {
			f.hits.Inc()
			if owner != primary {
				f.replicaHits.Inc()
			}
			return data, SourceNewCache, true
		} else if err != nil {
			f.cacheErrs.Inc()
		}
	}

	// Phase 2: hot data still on a ring's old owner (lines 6-8).
	consulted := make([]int, 0, 4)
	rings := ep.RingsFor(key)
	for ring := 0; ring < rings; ring++ {
		newOwner, oldOwner, tryOld := ep.Route(key, ring)
		if !tryOld || slices.Contains(consulted, oldOwner) {
			continue
		}
		consulted = append(consulted, oldOwner)
		data, ok, err := f.coord.Get(oldOwner, key, nil)
		if err != nil {
			// Faulted old owner: fall through to the DB path rather
			// than surfacing the error (the digest may even have been
			// right — the data is simply unreachable now).
			f.cacheErrs.Inc()
			continue
		}
		if !ok {
			f.falsePos.Inc()
			f.events.Record(telemetry.Event{Kind: telemetry.EventMigrationMiss, Node: oldOwner})
			continue
		}
		f.migrated.Inc()
		f.events.Record(telemetry.Event{Kind: telemetry.EventMigrationHit, Node: oldOwner})
		// Line 12: amortized migration — install on the new owner so
		// every subsequent request hits there. A failed install just
		// means the next request migrates again.
		if err := f.coord.Set(newOwner, key, data); err != nil {
			f.cacheErrs.Inc()
		}
		return data, SourceOldCache, true
	}
	return nil, SourceDatabase, false
}

// orderByLoad orders owners for probing: ascending load estimate,
// stable so the primary (index 0) wins ties — fresh clients score 0
// and an idle cluster probes in ring order. Scores are snapshotted
// once so concurrent exchanges cannot make the comparator
// inconsistent mid-sort.
func (f *Frontend) orderByLoad(owners []int) []int {
	if len(owners) < 2 {
		return owners
	}
	scores := make([]float64, len(owners))
	for i, o := range owners {
		scores[i] = f.coord.LoadEstimate(o)
	}
	order := make([]int, len(owners))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return scores[order[a]] < scores[order[b]] })
	out := make([]int, len(owners))
	for i, j := range order {
		out[i] = owners[j]
	}
	return out
}

// gatherPieces fetches and reassembles a chunked object. Pieces are
// grouped by their ring-0 owner and fetched with one pipelined MultiGet
// per owner (a 1 MB object in 4 KB pieces costs a handful of round
// trips instead of 256); any piece the batch does not produce — a miss,
// a faulted server, or hot data still on an old owner mid-transition —
// takes the full per-key Algorithm 2 path, so migration and replica
// semantics are exactly those of the unbatched fetch.
func (f *Frontend) gatherPieces(ep *transition.Epoch, key string, rawManifest []byte) ([]byte, bool) {
	m, err := chunk.DecodeManifest(rawManifest)
	if err != nil {
		return nil, false
	}
	pieces := make([][]byte, m.Pieces())
	found := make([]bool, m.Pieces())
	pieceKeys := make([]string, m.Pieces())
	groups := make(map[int][]int) // ring-0 owner -> piece indices
	for i := range pieces {
		pieceKeys[i] = chunk.PieceKey(key, i)
		owner := ep.Owner(pieceKeys[i], 0)
		groups[owner] = append(groups[owner], i)
	}
	// Owners lie inside the active prefix; visiting them by index, not
	// in map order, sends the batches out in the same order on every
	// run, so a count-based fault rule hits the same exchange on replay.
	for owner := 0; owner < ep.Active; owner++ {
		idx := groups[owner]
		if len(idx) == 0 {
			continue
		}
		keys := make([]string, len(idx))
		for j, i := range idx {
			keys[j] = pieceKeys[i]
		}
		got, err := f.coord.MultiGet(owner, keys...)
		if err != nil {
			// Faulted owner: every piece in this group falls back below.
			f.cacheErrs.Inc()
			continue
		}
		for j, i := range idx {
			if v, ok := got[keys[j]]; ok {
				pieces[i], found[i] = v, true
				f.hits.Inc()
			}
		}
	}
	for i := range pieces {
		if found[i] {
			continue
		}
		p, _, ok := f.cacheFetch(ep, pieceKeys[i], nil)
		if !ok {
			return nil, false
		}
		pieces[i] = p
	}
	data, err := chunk.Reassemble(m, pieces)
	if err != nil {
		return nil, false
	}
	return data, true
}

// FetchMany resolves several page keys, batching the first-try cache
// reads into one pipelined MultiGet per owner. Keys the batch does not
// resolve — misses, faulted servers, keys mid-migration — fall back to
// the full per-key Fetch path (replica rings, old-owner migration,
// database with dog-pile protection). The returned map holds every key
// that resolved; the error is the first per-key failure (remaining
// keys are still attempted).
func (f *Frontend) FetchMany(keys ...string) (map[string][]byte, error) {
	sp := f.tracer.Start("webtier.fetch_many")
	sp.SetAttr("keys", fmt.Sprintf("%d", len(keys)))
	defer sp.End()
	out := make(map[string][]byte, len(keys))
	if len(keys) == 0 {
		return out, nil
	}
	order := make([]string, 0, len(keys))
	groups := make(map[int][]string) // chosen owner -> keys
	seen := make(map[string]bool, len(keys))
	ep := f.coord.Epoch() // one epoch for the whole batch
	for _, k := range keys {
		if seen[k] {
			continue
		}
		seen[k] = true
		order = append(order, k)
		// Cold keys batch on their primary; hot keys batch on whichever
		// replica owner looks least loaded right now, so one popular
		// page's assets spread across its replica set.
		owners := ep.Owners(k)
		owner := owners[0]
		if len(owners) > 1 && ep.IsHot(k) {
			owner = f.orderByLoad(owners)[0]
		}
		groups[owner] = append(groups[owner], k)
	}
	batched := make(map[string][]byte, len(order))
	for owner := 0; owner < ep.Active; owner++ { // ascending, not map order; see gatherPieces
		ks := groups[owner]
		if len(ks) == 0 {
			continue
		}
		got, err := f.coord.MultiGet(owner, ks...)
		if err != nil {
			f.cacheErrs.Inc() // whole group degrades to the per-key path
			continue
		}
		for k, v := range got {
			batched[k] = v
		}
	}
	var firstErr error
	for _, k := range order {
		if raw, ok := batched[k]; ok {
			if f.pieceSize > 0 && chunk.IsManifest(raw) {
				if data, ok := f.gatherPieces(ep, k, raw); ok {
					f.hits.Inc()
					out[k] = data
					continue
				}
				// Lost piece: fall through to Fetch, which counts the
				// repair and rebuilds from the database.
			} else {
				f.hits.Inc()
				out[k] = raw
				continue
			}
		}
		data, _, err := f.fetch(k, nil)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		out[k] = data
	}
	return out, firstErr
}

// writeThrough installs a value on every distinct owner, splitting into
// pieces when the chunk layer is enabled.
func (f *Frontend) writeThrough(ep *transition.Epoch, key string, data []byte) {
	if f.pieceSize > 0 && len(data) > f.pieceSize {
		m, pieces := chunk.Split(data, f.pieceSize)
		for i, p := range pieces {
			f.storeAll(ep, chunk.PieceKey(key, i), p)
		}
		f.storeAll(ep, key, m.Encode())
		return
	}
	f.storeAll(ep, key, data)
}

// storeAll writes one key to every distinct owner across the rings. A
// failed write-through leaves the owner cold, not wrong: the next read
// misses there and repopulates from the DB. A hot key that missed a
// copy is demoted by the fan-out rule (transition.Machine.Fanout).
func (f *Frontend) storeAll(ep *transition.Epoch, key string, data []byte) {
	f.coord.Fanout(ep, key, func(owner int) bool {
		if err := f.coord.Set(owner, key, data); err != nil {
			f.cacheErrs.Inc()
			return false
		}
		return true
	})
}

// Stats returns a snapshot of outcome counters.
func (f *Frontend) Stats() Stats {
	return Stats{
		Hits:           f.hits.Value(),
		ReplicaHits:    f.replicaHits.Value(),
		Migrated:       f.migrated.Value(),
		DigestFalsePos: f.falsePos.Value(),
		DBFetches:      f.dbGets.Value(),
		PieceRepairs:   f.repairs.Value(),
		Collapsed:      f.collapsed.Value(),
		CacheErrors:    f.cacheErrs.Value(),
		Errors:         f.errs.Value(),
	}
}

// pagePrefix is the HTTP route for page fetches.
const pagePrefix = "/page/"

// pageBufs recycles the buffers a page GET lends to the cache tier, so
// a hit is read off the cache hop, written to the client and dropped
// without allocating the page. A buffer holds what one wire buffer of
// the cache hop holds; a larger page is allocated as before.
var pageBufs = sync.Pool{New: func() any {
	b := make([]byte, memproto.WireBufSize)
	return &b
}}

// Response header values, shared by every page GET. Assigning them
// allocates nothing; net/http clones the handler's header map at
// WriteHeader, so no response can change them.
var (
	sourceHeader = [...][]string{
		SourceNewCache: {SourceNewCache.String()},
		SourceOldCache: {SourceOldCache.String()},
		SourceDatabase: {SourceDatabase.String()},
	}
	textPlainHeader = []string{"text/plain; charset=utf-8"}
)

// ServeHTTP exposes the frontend as the paper's servlet layer:
// GET /page/<key> returns the page body; /stats returns counters.
func (f *Frontend) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case strings.HasPrefix(r.URL.Path, pagePrefix):
		key := strings.TrimPrefix(r.URL.Path, pagePrefix)
		if key == "" {
			http.Error(w, "missing key", http.StatusBadRequest)
			return
		}
		switch r.Method {
		case http.MethodGet:
			// data may alias the borrowed buffer, or be a slice shared
			// with other requests of one flight: only bp goes back to
			// the pool, and only once Write has copied data out.
			bp := pageBufs.Get().(*[]byte)
			defer pageBufs.Put(bp)
			data, source, err := f.fetchInto(key, *bp)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadGateway)
				return
			}
			h := w.Header()
			h["X-Proteus-Source"] = sourceHeader[source]
			h["Content-Type"] = textPlainHeader
			// A page is larger than net/http's 2 KiB sniffing buffer, so
			// without a length every response goes out chunked.
			h.Set("Content-Length", strconv.Itoa(len(data)))
			_, _ = w.Write(data)
		case http.MethodPut:
			body, err := io.ReadAll(io.LimitReader(r.Body, 16<<20))
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			if err := f.Update(key, body); err != nil {
				http.Error(w, err.Error(), http.StatusBadGateway)
				return
			}
			w.WriteHeader(http.StatusNoContent)
		case http.MethodDelete:
			removed, err := f.Invalidate(key)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadGateway)
				return
			}
			if !removed {
				http.Error(w, "not cached", http.StatusNotFound)
				return
			}
			w.WriteHeader(http.StatusNoContent)
		default:
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		}
	case r.URL.Path == "/pages":
		// Batched page-asset fetch: GET /pages?keys=k1,k2,... returns a
		// JSON object of key -> base64 body, resolved through FetchMany's
		// pipelined per-owner batches.
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		raw := r.URL.Query().Get("keys")
		if raw == "" {
			http.Error(w, "missing keys parameter", http.StatusBadRequest)
			return
		}
		pages, err := f.FetchMany(strings.Split(raw, ",")...)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(pages)
	case r.URL.Path == "/stats":
		s := f.Stats()
		_, _ = fmt.Fprintf(w, "hits %d\nreplica_hits %d\nmigrated %d\ndigest_false_pos %d\ndb_fetches %d\npiece_repairs %d\ncollapsed %d\ncache_errors %d\nerrors %d\n",
			s.Hits, s.ReplicaHits, s.Migrated, s.DigestFalsePos, s.DBFetches, s.PieceRepairs, s.Collapsed, s.CacheErrors, s.Errors)
	default:
		http.NotFound(w, r)
	}
}

var _ http.Handler = (*Frontend)(nil)
