package workload

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"proteus/internal/wiki"
)

// UserPool generates the paper's RBE user population deterministically:
// user i always receives the same independent, Zipf-weighted page set,
// so closed-loop experiments are reproducible across scenarios (every
// scenario sees exactly the same users).
type UserPool struct {
	corpus *wiki.Corpus
	alpha  float64
	seed   int64
	// cdf caches the shared Zipf CDF, built by the first User call;
	// RBE load generators call User from one goroutine per user.
	cdfOnce sync.Once
	cdf     []float64
}

// UserPoolConfig configures a pool. Every user holds PagesPerUser
// pages.
type UserPoolConfig struct {
	Corpus    *wiki.Corpus
	ZipfAlpha float64 // 0 selects DefaultZipfAlpha
	Seed      int64
}

// NewUserPool builds a pool.
func NewUserPool(cfg UserPoolConfig) (*UserPool, error) {
	if cfg.Corpus == nil {
		return nil, fmt.Errorf("workload: user pool needs a corpus")
	}
	if cfg.ZipfAlpha == 0 {
		cfg.ZipfAlpha = DefaultZipfAlpha
	}
	return &UserPool{corpus: cfg.Corpus, alpha: cfg.ZipfAlpha, seed: cfg.Seed}, nil
}

// User is one emulated browser.
type User struct {
	ID    int
	Pages []string // the independent working set
	rng   *rand.Rand
}

// User materialises user id. The same id always yields the same pages.
func (p *UserPool) User(id int) *User {
	rng := rand.New(rand.NewSource(p.seed ^ int64(id)*0x9e3779b9))
	// Per-user Zipf sampling over the full corpus: popular pages appear
	// in many users' sets, giving the cluster-level Zipf mixture.
	pages := make([]string, 0, PagesPerUser)
	seen := make(map[int]bool, PagesPerUser)
	zipf := p.userZipf(rng)
	for len(pages) < PagesPerUser {
		idx := zipf.Next()
		if seen[idx] {
			// Rejection keeps sets duplicate-free; fall back to uniform
			// when the head of the distribution is exhausted.
			idx = rng.Intn(p.corpus.Pages())
			if seen[idx] {
				continue
			}
		}
		seen[idx] = true
		pages = append(pages, p.corpus.Key(idx))
	}
	return &User{ID: id, Pages: pages, rng: rng}
}

// poolZipf is shared across User calls; the CDF is identical for every
// user so it is computed once.
func (p *UserPool) userZipf(rng *rand.Rand) *Zipf {
	p.initCDF()
	return &Zipf{rng: rng, cdf: p.cdf}
}

func (p *UserPool) initCDF() {
	p.cdfOnce.Do(func() {
		z, err := NewZipf(rand.New(rand.NewSource(0)), p.alpha, p.corpus.Pages())
		if err != nil {
			panic(err) // unreachable: config validated in NewUserPool
		}
		p.cdf = z.cdf
	})
}

// NextPage picks the user's next request target (uniform over the
// user's own set, per the paper: "the user thread will choose one page
// from her page set").
func (u *User) NextPage() string {
	return u.Pages[u.rng.Intn(len(u.Pages))]
}

// NextThink returns the user's think time before the next request. The
// paper fixes it at 0.5 s.
func (u *User) NextThink() time.Duration { return ThinkTime }

// ActiveUsers converts a target request rate into a concurrent user
// count using the closed-loop identity rate = users / (think + mean
// response time).
func ActiveUsers(rate float64, meanResponse time.Duration) int {
	cycle := ThinkTime + meanResponse
	n := int(rate * cycle.Seconds())
	if n < 1 {
		n = 1
	}
	return n
}
