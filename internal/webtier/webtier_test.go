package webtier

import (
	"errors"
	"fmt"
	"io"
	"net/http/httptest"
	"sync"
	"testing"

	"proteus/internal/cluster"
	"proteus/internal/database"
	"proteus/internal/livestack/livecluster"
	"proteus/internal/testutil"
	"proteus/internal/wiki"
)

type env struct {
	coord  *cluster.Coordinator
	locals []*cluster.LocalNode
	front  *Frontend
	corpus *wiki.Corpus
	timer  *testutil.ManualTimer
}

// envShape sizes the corpus and frontend of a test environment; the
// zero value of each field selects the suite default.
type envShape struct {
	pages, pageSize int
	pieceSize       int
}

// buildEnv is the one scaffolding path for the whole suite: corpus and
// no-sleep database from testutil, cluster bring-up (manual transition
// timer, optional faults) from livecluster.
func buildEnv(t *testing.T, o livecluster.Config, shape envShape) *env {
	t.Helper()
	if shape.pages == 0 {
		shape.pages = 500
	}
	if shape.pageSize == 0 {
		shape.pageSize = 512
	}
	corpus := testutil.NewCorpus(t, shape.pages, shape.pageSize)
	db := testutil.NewDB(t, corpus, 3)
	ce := livecluster.Start(t, o)
	front, err := New(Config{Coordinator: ce.Coord, DB: db, PieceSize: shape.pieceSize})
	if err != nil {
		t.Fatal(err)
	}
	return &env{coord: ce.Coord, locals: ce.Locals, front: front, corpus: corpus, timer: ce.Timer}
}

func newEnv(t *testing.T, nodes, active int) *env {
	return buildEnv(t, livecluster.Config{Nodes: nodes, Cluster: cluster.Config{InitialActive: active}}, envShape{})
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty config accepted")
	}
}

func TestFetchColdThenHot(t *testing.T) {
	e := newEnv(t, 3, 3)
	key := e.corpus.Key(7)

	data, source, err := e.front.Fetch(key)
	if err != nil || source != SourceDatabase {
		t.Fatalf("first fetch: source=%v err=%v", source, err)
	}
	if string(data) != string(e.corpus.Page(7)) {
		t.Fatal("first fetch returned wrong body")
	}
	data, source, err = e.front.Fetch(key)
	if err != nil || source != SourceNewCache {
		t.Fatalf("second fetch: source=%v err=%v", source, err)
	}
	if string(data) != string(e.corpus.Page(7)) {
		t.Fatal("cached body mismatch")
	}
	s := e.front.Stats()
	if s.Hits != 1 || s.DBFetches != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestFetchUnknownKey(t *testing.T) {
	e := newEnv(t, 2, 2)
	_, _, err := e.front.Fetch("not-a-page")
	if err == nil {
		t.Fatal("unknown key fetched successfully")
	}
	if !errors.Is(err, database.ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

// The paper's core end-to-end property: after a scale-down, the first
// request for a hot re-mapped key is served from the OLD owner (not
// the database), and every subsequent request hits the new owner.
func TestAmortizedMigrationOnScaleDown(t *testing.T) {
	e := newEnv(t, 3, 3)

	// Warm every page through the frontend.
	for i := 0; i < e.corpus.Pages(); i++ {
		if _, _, err := e.front.Fetch(e.corpus.Key(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.coord.SetActive(2); err != nil {
		t.Fatal(err)
	}

	// Find keys that moved off server 2.
	var movedKeys []string
	for i := 0; i < e.corpus.Pages(); i++ {
		key := e.corpus.Key(i)
		if e.coord.Placement().Lookup(key, 3) == 2 {
			movedKeys = append(movedKeys, key)
		}
	}
	if len(movedKeys) == 0 {
		t.Fatal("no keys moved")
	}

	fromOld, fromDB := 0, 0
	for _, key := range movedKeys {
		data, source, err := e.front.Fetch(key)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := e.corpus.PageByKey(key)
		if string(data) != string(want) {
			t.Fatalf("migrated body mismatch for %s", key)
		}
		switch source {
		case SourceOldCache:
			fromOld++
		case SourceDatabase:
			fromDB++
		}
	}
	// Nearly all first requests must be amortized migrations, not DB
	// hits ("only the first request will reach the old server").
	if fromOld < len(movedKeys)*9/10 {
		t.Fatalf("only %d/%d served from old owner (db=%d)", fromOld, len(movedKeys), fromDB)
	}
	// Second pass: everything hits the new owner.
	for _, key := range movedKeys {
		_, source, err := e.front.Fetch(key)
		if err != nil {
			t.Fatal(err)
		}
		if source != SourceNewCache {
			t.Fatalf("second fetch of %s from %v, want new cache", key, source)
		}
	}
	// After TTL the old server dies and requests still work.
	e.timer.Fire()
	for _, key := range movedKeys[:10] {
		if _, _, err := e.front.Fetch(key); err != nil {
			t.Fatal(err)
		}
	}
}

// Requests issued during a transition for keys that did NOT move must
// be untouched (no extra hops).
func TestUnmovedKeysUnaffected(t *testing.T) {
	e := newEnv(t, 3, 3)
	for i := 0; i < e.corpus.Pages(); i++ {
		if _, _, err := e.front.Fetch(e.corpus.Key(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.coord.SetActive(2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < e.corpus.Pages(); i++ {
		key := e.corpus.Key(i)
		if e.coord.Placement().Lookup(key, 3) == 2 {
			continue
		}
		_, source, err := e.front.Fetch(key)
		if err != nil {
			t.Fatal(err)
		}
		if source != SourceNewCache {
			t.Fatalf("unmoved key %s served from %v", key, source)
		}
	}
}

// The database tier must see (almost) no traffic during a transition —
// the paper's "the database tier will not realize transition dynamics
// is taking place".
func TestDatabaseShieldedDuringTransition(t *testing.T) {
	e := newEnv(t, 3, 3)
	for i := 0; i < e.corpus.Pages(); i++ {
		if _, _, err := e.front.Fetch(e.corpus.Key(i)); err != nil {
			t.Fatal(err)
		}
	}
	before := e.front.Stats().DBFetches
	if err := e.coord.SetActive(2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < e.corpus.Pages(); i++ {
		if _, _, err := e.front.Fetch(e.corpus.Key(i)); err != nil {
			t.Fatal(err)
		}
	}
	after := e.front.Stats().DBFetches
	if extra := after - before; extra > uint64(e.corpus.Pages()/20) {
		t.Fatalf("database saw %d fetches during transition, want ~0 of %d", extra, e.corpus.Pages())
	}
}

func TestHTTPHandler(t *testing.T) {
	// Paper-sized pages, so the response is over net/http's 2 KiB
	// pre-chunking buffer like the pages the live stack serves.
	e := buildEnv(t, livecluster.Config{Nodes: 2}, envShape{pageSize: 4096})
	srv := httptest.NewServer(e.front)
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/page/" + e.corpus.Key(3))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Proteus-Source"); got != "database" {
		t.Fatalf("source header %q, want database", got)
	}
	if string(body) != string(e.corpus.Page(3)) {
		t.Fatal("body mismatch")
	}
	// It goes out with its length only because the handler sets it.
	if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
		t.Fatalf("ContentLength %d, TransferEncoding %v; want %d and none",
			resp.ContentLength, resp.TransferEncoding, len(body))
	}

	resp, err = srv.Client().Get(srv.URL + "/page/bogus-key")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 502 {
		t.Fatalf("bogus key status %d, want 502", resp.StatusCode)
	}

	resp, err = srv.Client().Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	stats, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if len(stats) == 0 {
		t.Fatal("empty stats body")
	}

	resp, err = srv.Client().Get(srv.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("unknown path status %d", resp.StatusCode)
	}
}

func TestConcurrentFetches(t *testing.T) {
	e := newEnv(t, 3, 3)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < e.corpus.Pages(); i += 8 {
				if _, _, err := e.front.Fetch(e.corpus.Key(i)); err != nil {
					errs <- fmt.Errorf("fetch %d: %w", i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
