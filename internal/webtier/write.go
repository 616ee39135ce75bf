package webtier

import (
	"proteus/internal/chunk"
	"proteus/internal/transition"
)

// The paper's workload is read-mostly (wiki pages), but a production
// cache tier also takes writes. Update and Invalidate complete the API:
// both fan out across the replication rings, and both understand the
// chunk layer so a value's pieces stay consistent with its manifest.

// Update installs a new value for key on every distinct owner,
// replacing any chunked representation. Readers see either the old or
// the new value (per-key atomicity is per cache server, as with
// memcached).
func (f *Frontend) Update(key string, data []byte) error {
	// If the old value was chunked with more pieces than the new one
	// needs, the tail pieces must go, or a later manifest read could
	// pair a new manifest with stale pieces. Fetch the old manifest
	// (cache-only) to learn the old piece count.
	ep := f.coord.Epoch()
	oldPieces := 0
	if f.pieceSize > 0 {
		if raw, _, ok := f.cacheFetch(ep, key, nil); ok && chunk.IsManifest(raw) {
			if m, err := chunk.DecodeManifest(raw); err == nil {
				oldPieces = m.Pieces()
			}
		}
	}

	f.writeThrough(ep, key, data)

	// Drop orphaned tail pieces.
	newPieces := 0
	if f.pieceSize > 0 && len(data) > f.pieceSize {
		m, _ := chunk.Split(data, f.pieceSize)
		newPieces = m.Pieces()
	}
	for i := newPieces; i < oldPieces; i++ {
		f.deleteAll(ep, chunk.PieceKey(key, i))
	}
	return nil
}

// Invalidate removes key (and its pieces) from every distinct owner,
// forcing the next read back to the database. It reports whether any
// copy was resident.
func (f *Frontend) Invalidate(key string) (bool, error) {
	ep := f.coord.Epoch()
	pieces := 0
	if f.pieceSize > 0 {
		if raw, _, ok := f.cacheFetch(ep, key, nil); ok && chunk.IsManifest(raw) {
			if m, err := chunk.DecodeManifest(raw); err == nil {
				pieces = m.Pieces()
			}
		}
	}
	removed := f.deleteAll(ep, key)
	for i := 0; i < pieces; i++ {
		if f.deleteAll(ep, chunk.PieceKey(key, i)) {
			removed = true
		}
	}
	return removed, nil
}

// deleteAll removes one key from every distinct owner across the rings,
// reporting whether any server held it. The fan-out rule applies as in
// storeAll: a replica that kept its copy through a failed delete must
// not keep serving it as a hot peer.
func (f *Frontend) deleteAll(ep *transition.Epoch, key string) bool {
	removed := false
	f.coord.Fanout(ep, key, func(owner int) bool {
		deleted, err := f.coord.Delete(owner, key)
		if err != nil {
			f.cacheErrs.Add(1)
			return false
		}
		removed = removed || deleted
		return true
	})
	return removed
}
