// Package hotkey detects the hottest keys of a Zipf-skewed workload
// online and carries the machinery around replicating them: a
// space-saving top-k sketch (Metwally et al., "Efficient Computation of
// Frequent and Top-k Elements in Data Streams") and a promotion tracker
// with hysteresis so keys do not flap in and out of the hot set. The
// promoted set reaches front ends in-process, through transition.Epoch.
//
// Algorithm 1 balances the key *space* per active prefix, but a Zipf
// head still concentrates *load* on whichever server owns the hottest
// keys (the Fig. 5 min/max ratios never reach 1.0). DistCache-style
// replication of just the head restores balance at a cost of R-1 extra
// copies per hot key; this package decides, deterministically, which
// keys earn those copies.
//
// Everything here is a pure function of the observation stream: no wall
// clock, no global randomness. The package is on the replay-critical
// list of the transdeterminism lint, and the conformance harness depends
// on that.
package hotkey

import "sort"

// Entry is one tracked counter of the sketch.
type Entry struct {
	// Key is the tracked key.
	Key string
	// Count is the estimated observation count (an overestimate:
	// true count <= Count <= true count + Err).
	Count uint64
	// Err is the maximum overestimation, inherited from the counter
	// that was evicted to make room for this key.
	Err uint64
}

// slot is a heap node: Entry plus the insertion sequence used to break
// count ties deterministically (older slots evict first).
type slot struct {
	Entry
	seq uint64
}

// Sketch is a space-saving top-k summary. It tracks at most Capacity
// counters; when a new key arrives with all counters in use, the
// minimum counter is reassigned to it (count' = min+1, err = min),
// which guarantees any key with true frequency > min is tracked.
//
// A Sketch is not safe for concurrent use; Tracker adds the lock.
type Sketch struct {
	capacity int
	pos      map[string]int // key -> index into heap
	heap     []slot         // min-heap by (Count, seq)
	seq      uint64
}

// NewSketch builds a sketch tracking up to capacity counters
// (capacity < 1 is treated as 1).
func NewSketch(capacity int) *Sketch {
	if capacity < 1 {
		capacity = 1
	}
	return &Sketch{
		capacity: capacity,
		pos:      make(map[string]int, capacity),
		heap:     make([]slot, 0, capacity),
	}
}

// Capacity returns the counter budget.
func (s *Sketch) Capacity() int { return s.capacity }

// Len returns the number of keys currently tracked.
func (s *Sketch) Len() int { return len(s.heap) }

// Observe records one occurrence of key.
func (s *Sketch) Observe(key string) { s.ObserveN(key, 1) }

// ObserveN records n occurrences of key. n = 0 is a no-op.
func (s *Sketch) ObserveN(key string, n uint64) {
	if n == 0 {
		return
	}
	if i, ok := s.pos[key]; ok {
		s.heap[i].Count += n
		s.down(i)
		return
	}
	if len(s.heap) < s.capacity {
		s.seq++
		s.heap = append(s.heap, slot{Entry: Entry{Key: key, Count: n}, seq: s.seq})
		i := len(s.heap) - 1
		s.pos[key] = i
		s.up(i)
		return
	}
	// Space-saving eviction: the minimum counter becomes the new key's,
	// carrying its old count as the error bound.
	min := &s.heap[0]
	delete(s.pos, min.Key)
	s.seq++
	min.Err = min.Count
	min.Count += n
	min.Key = key
	min.seq = s.seq
	s.pos[key] = 0
	s.down(0)
}

// Count returns the estimate for key: est is an overestimate of the
// true count by at most err. tracked is false when the key holds no
// counter (its true count is then at most the current minimum).
func (s *Sketch) Count(key string) (est, err uint64, tracked bool) {
	i, ok := s.pos[key]
	if !ok {
		return 0, 0, false
	}
	return s.heap[i].Count, s.heap[i].Err, true
}

// Min returns the smallest tracked count (0 when empty): an upper bound
// on the true count of every untracked key.
func (s *Sketch) Min() uint64 {
	if len(s.heap) == 0 {
		return 0
	}
	return s.heap[0].Count
}

// Top returns the k largest counters, ordered by descending count with
// key as the deterministic tie-break. k <= 0 or k > Len returns all.
func (s *Sketch) Top(k int) []Entry {
	out := make([]Entry, len(s.heap))
	for i, sl := range s.heap {
		out[i] = sl.Entry
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Key < out[j].Key
	})
	if k > 0 && k < len(out) {
		out = out[:k]
	}
	return out
}

// Decay halves every counter (and its error bound), dropping counters
// that reach zero. Halving is monotone, so the heap order is preserved
// except for emptied slots; the tracker calls this at window
// boundaries to age out yesterday's hot set.
func (s *Sketch) Decay() {
	kept := s.heap[:0]
	for _, sl := range s.heap {
		sl.Count /= 2
		sl.Err /= 2
		if sl.Count == 0 {
			delete(s.pos, sl.Key)
			continue
		}
		kept = append(kept, sl)
	}
	s.heap = kept
	// Compaction may have broken the heap shape; rebuild and reindex.
	for i := len(s.heap)/2 - 1; i >= 0; i-- {
		s.down(i)
	}
	for i, sl := range s.heap {
		s.pos[sl.Key] = i
	}
}

// Reset drops every counter.
func (s *Sketch) Reset() {
	s.heap = s.heap[:0]
	s.pos = make(map[string]int, s.capacity)
	s.seq = 0
}

func (s *Sketch) less(i, j int) bool {
	if s.heap[i].Count != s.heap[j].Count {
		return s.heap[i].Count < s.heap[j].Count
	}
	return s.heap[i].seq < s.heap[j].seq
}

func (s *Sketch) swap(i, j int) {
	s.heap[i], s.heap[j] = s.heap[j], s.heap[i]
	s.pos[s.heap[i].Key] = i
	s.pos[s.heap[j].Key] = j
}

func (s *Sketch) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			return
		}
		s.swap(i, parent)
		i = parent
	}
}

func (s *Sketch) down(i int) {
	n := len(s.heap)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && s.less(l, smallest) {
			smallest = l
		}
		if r < n && s.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		s.swap(i, smallest)
		i = smallest
	}
}
