package webtier

import (
	"bytes"
	"testing"

	"proteus/internal/chunk"
	"proteus/internal/cluster"
	"proteus/internal/livestack/livecluster"
)

// newChunkedEnv builds an environment with big pages and the piece
// layer enabled.
func newChunkedEnv(t *testing.T, nodes, active, pieceSize int) *env {
	t.Helper()
	return buildEnv(t,
		livecluster.Config{Nodes: nodes, Cluster: cluster.Config{InitialActive: active}},
		// Big pages: ~4 pieces each at 2 KB.
		envShape{pages: 60, pageSize: 8192, pieceSize: pieceSize})
}

func TestChunkedFetchRoundTrip(t *testing.T) {
	e := newChunkedEnv(t, 3, 3, 2048)
	for i := 0; i < e.corpus.Pages(); i++ {
		key := e.corpus.Key(i)
		data, src, err := e.front.Fetch(key)
		if err != nil || src != SourceDatabase {
			t.Fatalf("cold fetch %s: src=%v err=%v", key, src, err)
		}
		if !bytes.Equal(data, e.corpus.Page(i)) {
			t.Fatalf("cold body mismatch for %s", key)
		}
		data, src, err = e.front.Fetch(key)
		if err != nil || src != SourceNewCache {
			t.Fatalf("warm fetch %s: src=%v err=%v", key, src, err)
		}
		if !bytes.Equal(data, e.corpus.Page(i)) {
			t.Fatalf("warm body mismatch for %s", key)
		}
	}
}

// The point of the piece model: one large object's pieces land on
// multiple servers, restoring per-byte balance.
func TestChunkedPiecesSpreadAcrossServers(t *testing.T) {
	e := newChunkedEnv(t, 3, 3, 2048)
	spreadObjects := 0
	for i := 0; i < e.corpus.Pages(); i++ {
		key := e.corpus.Key(i)
		if _, _, err := e.front.Fetch(key); err != nil {
			t.Fatal(err)
		}
		m, pieces := chunk.Split(e.corpus.Page(i), 2048)
		owners := map[int]bool{}
		for p := 0; p < m.Pieces(); p++ {
			owner, _, _ := e.coord.Epoch().Route(chunk.PieceKey(key, p), 0)
			owners[owner] = true
			// Each piece must be resident on its own owner.
			if !e.locals[owner].Server().Cache().Contains(chunk.PieceKey(key, p)) {
				t.Fatalf("piece %d of %s missing from owner %d", p, key, owner)
			}
		}
		_ = pieces
		if len(owners) > 1 {
			spreadObjects++
		}
	}
	if spreadObjects < e.corpus.Pages()/4 {
		t.Fatalf("only %d/%d objects spread over multiple servers", spreadObjects, e.corpus.Pages())
	}
}

// Losing one piece (deleted behind the frontend's back) triggers a
// database repair that restores the full piece set.
func TestChunkedPieceLossRepairs(t *testing.T) {
	e := newChunkedEnv(t, 3, 3, 2048)
	key := e.corpus.Key(7)
	if _, _, err := e.front.Fetch(key); err != nil {
		t.Fatal(err)
	}
	pieceKey := chunk.PieceKey(key, 1)
	owner, _, _ := e.coord.Epoch().Route(pieceKey, 0)
	if deleted, err := e.coord.Client(owner).Delete(pieceKey); err != nil || !deleted {
		t.Fatalf("delete piece: %v %v", deleted, err)
	}

	data, src, err := e.front.Fetch(key)
	if err != nil {
		t.Fatal(err)
	}
	if src != SourceDatabase {
		t.Fatalf("fetch after piece loss served from %v, want database repair", src)
	}
	if !bytes.Equal(data, e.corpus.Page(7)) {
		t.Fatal("repaired body mismatch")
	}
	if e.front.Stats().PieceRepairs != 1 {
		t.Fatalf("PieceRepairs = %d, want 1", e.front.Stats().PieceRepairs)
	}
	// The piece set is whole again.
	if _, src, _ := e.front.Fetch(key); src != SourceNewCache {
		t.Fatalf("post-repair fetch from %v, want cache", src)
	}
}

// Chunked objects ride smooth transitions: pieces migrate on demand
// like any other key, and the database stays quiet.
func TestChunkedSmoothTransition(t *testing.T) {
	e := newChunkedEnv(t, 3, 3, 2048)
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
		data, _, err := e.front.Fetch(e.corpus.Key(i))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, e.corpus.Page(i)) {
			t.Fatalf("body mismatch for %s during transition", e.corpus.Key(i))
		}
	}
	extra := e.front.Stats().DBFetches - before
	if extra > uint64(e.corpus.Pages()/10) {
		t.Fatalf("chunked transition leaked %d fetches to the database", extra)
	}
	if e.front.Stats().Migrated == 0 {
		t.Fatal("no piece migrations during transition")
	}
}

// Small values below the piece size are stored whole even with the
// chunk layer enabled.
func TestChunkedSmallValuesStoredWhole(t *testing.T) {
	e := newChunkedEnv(t, 2, 2, 1<<20) // piece size far above page size
	key := e.corpus.Key(1)
	if _, _, err := e.front.Fetch(key); err != nil {
		t.Fatal(err)
	}
	owner, _, _ := e.coord.Epoch().Route(key, 0)
	raw, ok := e.locals[owner].Server().Cache().Peek(key)
	if !ok {
		t.Fatal("value not resident")
	}
	if chunk.IsManifest(raw) {
		t.Fatal("small value was chunked")
	}
}
