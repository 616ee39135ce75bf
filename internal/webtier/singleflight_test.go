package webtier

import (
	"bytes"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestFlightGroupCollapses(t *testing.T) {
	var g flightGroup
	var calls atomic.Int32
	release := make(chan struct{})
	var wg sync.WaitGroup
	shared := atomic.Int32{}
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			data, err, wasShared := g.do("k", func() ([]byte, error) {
				calls.Add(1)
				<-release
				return []byte("v"), nil
			})
			if err != nil || string(data) != "v" {
				t.Errorf("do = %q, %v", data, err)
			}
			if wasShared {
				shared.Add(1)
			}
		}()
	}
	// Release once the nine that are not leading have joined.
	awaitJoined(t, 9)
	close(release)
	wg.Wait()
	if got := calls.Load(); got != 1 {
		t.Fatalf("fn called %d times, want 1", got)
	}
	if got := shared.Load(); got != 9 {
		t.Fatalf("shared count = %d, want 9", got)
	}
}

func TestFlightGroupPropagatesErrors(t *testing.T) {
	var g flightGroup
	boom := errors.New("boom")
	_, err, _ := g.do("k", func() ([]byte, error) { return nil, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	// The flight is cleared: a later call runs fn again.
	data, err, _ := g.do("k", func() ([]byte, error) { return []byte("ok"), nil })
	if err != nil || string(data) != "ok" {
		t.Fatalf("second do = %q, %v", data, err)
	}
}

func TestFlightGroupDistinctKeysRunConcurrently(t *testing.T) {
	var g flightGroup
	var calls atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		key := string(rune('a' + i))
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.do(key, func() ([]byte, error) {
				calls.Add(1)
				return nil, nil
			})
		}()
	}
	wg.Wait()
	if got := calls.Load(); got != 4 {
		t.Fatalf("fn called %d times, want 4", got)
	}
}

// gatedDB holds every Get until the gate opens.
type gatedDB struct {
	Backing
	open chan struct{}
}

func (g gatedDB) Get(key string) ([]byte, error) {
	<-g.open
	return g.Backing.Get(key)
}

// awaitJoined returns once n goroutines are parked in flightGroup.do
// on another caller's flight, read off the goroutine dump: the only
// channel receive made by do itself is the wait for a flight's leader.
func awaitJoined(t *testing.T, n int) {
	t.Helper()
	parked := []byte(" [chan receive]:\nproteus/internal/webtier.(*flightGroup).do(")
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
		got := bytes.Count(buf[:runtime.Stack(buf, true)], parked)
		if got >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d callers joined a flight", got, n)
		}
	}
}

// End to end: a cold hot-key stampede reaches the database exactly once
// and every other caller is counted as collapsed. The leader is held at
// the database until the rest of the stampede has joined its flight:
// without the gate the no-sleep database can let the leader finish
// before anyone leaves their cache probe, and the rest resolve through
// the double-check with nothing collapsed.
func TestDogPileProtection(t *testing.T) {
	e := newEnv(t, 2, 2)
	open := make(chan struct{})
	e.front.db = gatedDB{Backing: e.front.db, open: open}
	key := e.corpus.Key(5)
	const stampede = 16
	var wg sync.WaitGroup
	for i := 0; i < stampede; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := e.front.Fetch(key); err != nil {
				t.Error(err)
			}
		}()
	}
	awaitJoined(t, stampede-1)
	close(open)
	wg.Wait()
	s := e.front.Stats()
	if s.DBFetches != 1 {
		t.Fatalf("stampede reached the database %d times, want 1", s.DBFetches)
	}
	if s.Collapsed != stampede-1 {
		t.Fatalf("%d collapsed fetches recorded, want %d", s.Collapsed, stampede-1)
	}
}
