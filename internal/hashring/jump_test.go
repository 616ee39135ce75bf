package hashring

import (
	"math"
	"testing"

	"proteus/internal/core"
)

// jumpRouter routes with Lamping & Veach's jump consistent hash, the
// core "jump" placement backend's stateless primary ring.
type jumpRouter struct{}

func (jumpRouter) Route(key string, active int) int { return core.JumpLookup(key, active) }

// Jump and the Proteus placement solve the same problem: compare their
// worst-case balance over active prefixes. Both should be far above
// random-vnode consistent hashing.
func TestJumpComparableToProteusBalance(t *testing.T) {
	ks := keys(200000)
	jumpWorst, proteusWorst := 1.0, 1.0
	p := newTestPlacement(t, 10)
	for active := 2; active <= 10; active++ {
		if r := loadRatio(jumpRouter{}, active, ks); r < jumpWorst {
			jumpWorst = r
		}
		if r := loadRatio(Adapter{Placement: p}, active, ks); r < proteusWorst {
			proteusWorst = r
		}
	}
	if jumpWorst < 0.9 || proteusWorst < 0.9 {
		t.Errorf("worst ratios: jump=%.3f proteus=%.3f; both should be >= 0.9", jumpWorst, proteusWorst)
	}
	if math.Abs(jumpWorst-proteusWorst) > 0.08 {
		t.Errorf("jump (%.3f) and proteus (%.3f) should balance comparably", jumpWorst, proteusWorst)
	}
}
