// Package a is the lockorder fixture: an AB/BA acquisition cycle
// across two functions is a potential deadlock, as is one closed
// through a call; a call that reaches a blocking operation while a
// mutex is held is flagged separately. Consistent nesting is accepted.
package a

import "sync"

var (
	muA sync.Mutex
	muB sync.Mutex
	muC sync.Mutex
	muD sync.Mutex
	ch  = make(chan int)
)

// lockAB and lockBA close the A-B cycle. The finding lands on the
// acquisition completing the lexicographically-first hop.
func lockAB() {
	muA.Lock()
	muB.Lock() // want "lock order cycle \\(potential deadlock\\) among 2 mutexes"
	muB.Unlock()
	muA.Unlock()
}

func lockBA() {
	muB.Lock()
	muA.Lock()
	muA.Unlock()
	muB.Unlock()
}

// lockCviaCall closes a C-D cycle through a callee: the C hop is
// derived from takeD's transitive acquisition.
func lockCviaCall() {
	muC.Lock()
	defer muC.Unlock()
	takeD() // want "lock order cycle \\(potential deadlock\\) among 2 mutexes"
}

func takeD() {
	muD.Lock()
	muD.Unlock()
}

func lockDthenC() {
	muD.Lock()
	muC.Lock()
	muC.Unlock()
	muD.Unlock()
}

// blockHolding calls into a blocking operation while holding a mutex.
func blockHolding() {
	muA.Lock()
	defer muA.Unlock()
	waitForSignal() // want "call while a.muA is held reaches a blocking operation"
}

func waitForSignal() {
	<-ch
}

// nested uses the same A-then-B order as lockAB: consistent nesting
// adds no new edge direction and no new finding.
func nested() {
	muA.Lock()
	muB.Lock()
	muB.Unlock()
	muA.Unlock()
}

// pair's two instances share one lock key but are distinct mutexes.
type pair struct{ mu sync.Mutex }

// leakBoth returns with two mutexes of one type held: one finding per
// mutex at one position.
func leakBoth(x, y *pair) {
	x.mu.Lock()
	y.mu.Lock()
	return // want "return while x.mu is held" "return while y.mu is held"
}

// release drops the first mutex before taking the second: no edge.
func release() {
	muB.Lock()
	muB.Unlock()
	muA.Lock()
	muA.Unlock()
}
