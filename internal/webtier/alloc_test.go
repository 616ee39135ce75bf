package webtier

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"

	"proteus/internal/livestack/livecluster"
)

// warmEnv is a loopback cluster of paper-sized (4 KiB) pages with every
// page already cached on its owner.
func warmEnv(t *testing.T) *env {
	t.Helper()
	e := buildEnv(t, livecluster.Config{Nodes: 3}, envShape{pages: 64, pageSize: 4096})
	for i := 0; i < e.corpus.Pages(); i++ {
		if _, _, err := e.front.Fetch(e.corpus.Key(i)); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// A warm Fetch hit costs the whole process two allocations, the same
// two as a bare client GET (cacheclient.TestClientGetAllocs): the value
// the caller keeps and the key string the server's parser hands to its
// cache. Routing adds none — the owners go into a stack array.
func TestFetchHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops a quarter of its Puts, so the borrowed buffers are reallocated")
	}
	e := warmEnv(t)
	key, want := e.corpus.Key(5), e.corpus.Page(5)
	allocs := testing.AllocsPerRun(500, func() {
		data, src, err := e.front.Fetch(key)
		if err != nil || src != SourceNewCache || len(data) != len(want) {
			t.Fatalf("Fetch: %d bytes from %v, err=%v", len(data), src, err)
		}
	})
	t.Logf("warm Fetch hit: %.1f allocs/op", allocs)
	if allocs > 2 {
		t.Errorf("warm Fetch hit allocates %.0f objects/op across front end, client and server, want <= 2", allocs)
	}
}

// discardWriter is a ResponseWriter that drops the response, so only
// the handler's own allocations are counted.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(int)             {}

// A warm page GET reads the page into a pooled buffer, writes it and
// returns the buffer, so no page-sized allocation is left: what remains
// is the server's key string and the Content-Length header. Allocating
// the 4 KiB page again would fail this.
func TestServeHTTPGetAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops a quarter of its Puts, so the borrowed buffers are reallocated")
	}
	e := warmEnv(t)
	r := httptest.NewRequest(http.MethodGet, pagePrefix+e.corpus.Key(5), nil)
	w := &discardWriter{h: http.Header{}}
	get := func() { e.front.ServeHTTP(w, r) }

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 500
	get()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		get()
	}
	runtime.ReadMemStats(&after)
	perOp := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("warm page GET: %.0f B/op", perOp)
	if perOp >= 1024 {
		t.Errorf("warm page GET allocates %.0f B/op across front end, client and server, want < 1 KiB", perOp)
	}
	if got := w.h.Get("X-Proteus-Source"); got != SourceNewCache.String() {
		t.Errorf("source header %q, want %q", got, SourceNewCache)
	}
}

// Pooled page buffers must never leak one response's bytes into
// another. Eight clients fetch over HTTP at once, mixing warm keys
// (read into pooled buffers) with cold keys that all of them request
// at the same moment (one database flight, its body shared by every
// waiter); each body must match the corpus byte for byte. Run under
// -race, the detector also sees any buffer reused while still written.
func TestServeHTTPPooledBuffersUnderConcurrency(t *testing.T) {
	e := buildEnv(t, livecluster.Config{Nodes: 3}, envShape{pages: 96, pageSize: 4096})
	const warm, workers, rounds = 48, 8, 3
	for i := 0; i < warm; i++ {
		if _, _, err := e.front.Fetch(e.corpus.Key(i)); err != nil {
			t.Fatal(err)
		}
	}
	srv := httptest.NewServer(e.front)
	defer srv.Close()

	get := func(c *http.Client, i int) error {
		resp, err := c.Get(srv.URL + pagePrefix + e.corpus.Key(i))
		if err != nil {
			return err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("page %d: status %d", i, resp.StatusCode)
		}
		if !bytes.Equal(body, e.corpus.Page(i)) {
			return fmt.Errorf("page %d (%s): body differs from the corpus", i, resp.Header.Get("X-Proteus-Source"))
		}
		return nil
	}

	cold := warm
	for round := 0; round < rounds; round++ {
		var (
			wg    sync.WaitGroup
			start = make(chan struct{})
			errs  = make(chan error, workers)
		)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				c := srv.Client()
				<-start
				// Each worker sweeps every warm page from its own
				// offset, and every fourth request all of them ask
				// for the same cold page at once.
				for j := 0; j < warm; j++ {
					if j%4 == 0 {
						if err := get(c, cold+j/4%4); err != nil {
							errs <- err
							return
						}
					}
					if err := get(c, (w*warm/workers+j)%warm); err != nil {
						errs <- err
						return
					}
				}
			}(w)
		}
		close(start)
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
		cold += 4
	}
	if s := e.front.Stats(); s.Errors != 0 || s.DBFetches < uint64(rounds*4) {
		t.Errorf("stats = %+v: want no errors and the cold pages filled from the database", s)
	}
}
