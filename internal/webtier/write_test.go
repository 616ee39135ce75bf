package webtier

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"proteus/internal/chunk"
)

// httptestNewServer keeps the test body readable.
func httptestNewServer(h http.Handler) *httptest.Server { return httptest.NewServer(h) }

func TestUpdateReplacesValue(t *testing.T) {
	e := newEnv(t, 3, 3)
	key := e.corpus.Key(3)
	if _, _, err := e.front.Fetch(key); err != nil {
		t.Fatal(err)
	}
	if err := e.front.Update(key, []byte("edited")); err != nil {
		t.Fatal(err)
	}
	data, src, err := e.front.Fetch(key)
	if err != nil || src != SourceNewCache {
		t.Fatalf("fetch after update: src=%v err=%v", src, err)
	}
	if string(data) != "edited" {
		t.Fatalf("data = %q", data)
	}
}

func TestInvalidateForcesDatabase(t *testing.T) {
	e := newEnv(t, 3, 3)
	key := e.corpus.Key(4)
	if _, _, err := e.front.Fetch(key); err != nil {
		t.Fatal(err)
	}
	removed, err := e.front.Invalidate(key)
	if err != nil || !removed {
		t.Fatalf("Invalidate = %v,%v", removed, err)
	}
	_, src, err := e.front.Fetch(key)
	if err != nil || src != SourceDatabase {
		t.Fatalf("fetch after invalidate: src=%v err=%v", src, err)
	}
	// Second invalidate of an absent key reports false.
	e.front.Invalidate(key) // remove the refreshed copy
	removed, err = e.front.Invalidate(key)
	if err != nil || removed {
		t.Fatalf("second Invalidate = %v,%v", removed, err)
	}
}

func TestUpdateShrinksChunkedValue(t *testing.T) {
	e := newChunkedEnv(t, 3, 3, 2048)
	key := e.corpus.Key(2)
	if _, _, err := e.front.Fetch(key); err != nil {
		t.Fatal(err)
	}
	oldBody := e.corpus.Page(2)
	m, _ := chunk.Split(oldBody, 2048)
	if m.Pieces() < 3 {
		t.Skipf("page too small to exercise shrink: %d pieces", m.Pieces())
	}

	// Update to a small, unchunked value.
	if err := e.front.Update(key, []byte("tiny")); err != nil {
		t.Fatal(err)
	}
	data, src, err := e.front.Fetch(key)
	if err != nil || src != SourceNewCache || string(data) != "tiny" {
		t.Fatalf("after shrink: %q,%v,%v", data, src, err)
	}
	// Old pieces must be gone from their owners.
	for i := 0; i < m.Pieces(); i++ {
		pk := chunk.PieceKey(key, i)
		owner, _, _ := e.coord.Epoch().Route(pk, 0)
		if e.locals[owner].Server().Cache().Contains(pk) {
			t.Fatalf("orphan piece %d survived the shrink", i)
		}
	}
}

func TestUpdateGrowsIntoChunks(t *testing.T) {
	e := newChunkedEnv(t, 2, 2, 2048)
	key := e.corpus.Key(1)
	big := bytes.Repeat([]byte("x"), 5000)
	if err := e.front.Update(key, big); err != nil {
		t.Fatal(err)
	}
	data, src, err := e.front.Fetch(key)
	if err != nil || src != SourceNewCache || !bytes.Equal(data, big) {
		t.Fatalf("after grow: len=%d src=%v err=%v", len(data), src, err)
	}
}

func TestInvalidateChunkedRemovesPieces(t *testing.T) {
	e := newChunkedEnv(t, 3, 3, 2048)
	key := e.corpus.Key(5)
	if _, _, err := e.front.Fetch(key); err != nil {
		t.Fatal(err)
	}
	removed, err := e.front.Invalidate(key)
	if err != nil || !removed {
		t.Fatalf("Invalidate = %v,%v", removed, err)
	}
	m, _ := chunk.Split(e.corpus.Page(5), 2048)
	for i := 0; i < m.Pieces(); i++ {
		pk := chunk.PieceKey(key, i)
		owner, _, _ := e.coord.Epoch().Route(pk, 0)
		if e.locals[owner].Server().Cache().Contains(pk) {
			t.Fatalf("piece %d survived invalidation", i)
		}
	}
}

func TestHTTPPutAndDelete(t *testing.T) {
	e := newEnv(t, 2, 2)
	srv := httptestNewServer(e.front)
	defer srv.Close()
	key := e.corpus.Key(9)

	// PUT installs a value.
	req, _ := http.NewRequest(http.MethodPut, srv.URL+"/page/"+key, strings.NewReader("fresh"))
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("PUT status %d", resp.StatusCode)
	}
	resp, err = srv.Client().Get(srv.URL + "/page/" + key)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "fresh" || resp.Header.Get("X-Proteus-Source") != "cache" {
		t.Fatalf("GET after PUT = %q (%s)", body, resp.Header.Get("X-Proteus-Source"))
	}

	// DELETE invalidates.
	req, _ = http.NewRequest(http.MethodDelete, srv.URL+"/page/"+key, nil)
	resp, err = srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE status %d", resp.StatusCode)
	}
	// Second DELETE: nothing cached.
	req, _ = http.NewRequest(http.MethodDelete, srv.URL+"/page/"+key, nil)
	resp, err = srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("second DELETE status %d", resp.StatusCode)
	}

	// Unsupported method.
	req, _ = http.NewRequest(http.MethodPatch, srv.URL+"/page/"+key, nil)
	resp, err = srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("PATCH status %d", resp.StatusCode)
	}
}
