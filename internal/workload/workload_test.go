package workload

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"time"

	"proteus/internal/wiki"
)

func testCorpus(t testing.TB, pages int) *wiki.Corpus {
	t.Helper()
	c, err := wiki.New(pages, 256)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestDiurnalShape(t *testing.T) {
	d := DefaultDiurnal(100, 24*time.Hour)
	peak, valley := d.Peak(), d.Valley()
	if r := peak / valley; math.Abs(r-2.0) > 1e-9 {
		t.Fatalf("peak/valley = %g, want 2.0", r)
	}
	if got := d.Rate(d.PeakAt); math.Abs(got-peak) > 1e-9 {
		t.Fatalf("Rate(peak time) = %g, want %g", got, peak)
	}
	trough := d.PeakAt + d.Period/2
	if got := d.Rate(trough); math.Abs(got-valley) > 1e-9 {
		t.Fatalf("Rate(trough) = %g, want %g", got, valley)
	}
	// Mean over one period is close to Mean.
	sum := 0.0
	const steps = 1000
	for i := 0; i < steps; i++ {
		sum += d.Rate(time.Duration(i) * d.Period / steps)
	}
	if mean := sum / steps; math.Abs(mean-100) > 0.5 {
		t.Fatalf("mean rate %g, want ≈100", mean)
	}
}

func TestDiurnalSurge(t *testing.T) {
	d := DefaultDiurnal(100, 24*time.Hour)
	d.SurgeAt = 6 * time.Hour
	d.SurgeDuration = 2 * time.Hour
	d.SurgeFactor = 3

	base := d.Base()
	if base.Rate(7*time.Hour) != DefaultDiurnal(100, 24*time.Hour).Rate(7*time.Hour) {
		t.Fatal("Base() did not strip the surge")
	}
	// Outside the window the surge is invisible.
	for _, at := range []time.Duration{0, 5 * time.Hour, 9 * time.Hour, 20 * time.Hour} {
		if got, want := d.Rate(at), base.Rate(at); got != want {
			t.Fatalf("Rate(%v) = %g, want %g (outside surge)", at, got, want)
		}
	}
	// The surge midpoint multiplies the base rate by the full factor,
	// the edges by nothing, and everything stays under Peak().
	mid := d.SurgeAt + d.SurgeDuration/2
	if got, want := d.Rate(mid), 3*base.Rate(mid); math.Abs(got-want) > 1e-9 {
		t.Fatalf("Rate(midpoint) = %g, want %g", got, want)
	}
	if got, want := d.Rate(d.SurgeAt), base.Rate(d.SurgeAt); math.Abs(got-want) > 1e-9 {
		t.Fatalf("Rate(surge start) = %g, want %g", got, want)
	}
	for ti := 0; ti <= 240; ti++ {
		at := time.Duration(ti) * 6 * time.Minute
		if got := d.Rate(at); got > d.Peak()+1e-9 {
			t.Fatalf("Rate(%v) = %g exceeds Peak() = %g", at, got, d.Peak())
		}
	}
	if d.Peak() <= base.Peak() {
		t.Fatalf("surged Peak() %g not above base %g", d.Peak(), base.Peak())
	}
}

func TestDiurnalFlat(t *testing.T) {
	d := Diurnal{Mean: 50, PeakToValley: 1, Period: time.Hour}
	for _, frac := range []int{0, 1, 2, 3} {
		if got := d.Rate(time.Duration(frac) * 15 * time.Minute); got != 50 {
			t.Fatalf("flat rate = %g at %d", got, frac)
		}
	}
}

func TestZipfValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := NewZipf(rng, 0.8, 0); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := NewZipf(rng, -1, 10); err == nil {
		t.Error("negative alpha accepted")
	}
}

func TestZipfSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	z, err := NewZipf(rng, 0.8, 10000)
	if err != nil {
		t.Fatal(err)
	}
	const draws = 200000
	counts := make([]int, z.N())
	for i := 0; i < draws; i++ {
		counts[z.Next()]++
	}
	// Rank 0 must dominate, and the top-100 mass must exceed the
	// uniform share by a wide margin.
	if counts[0] < counts[100] {
		t.Fatal("rank 0 not more popular than rank 100")
	}
	top := 0
	for _, c := range counts[:100] {
		top += c
	}
	if frac := float64(top) / draws; frac < 0.10 {
		t.Fatalf("top-100 mass = %.3f, want >= 0.10 (uniform would be 0.01)", frac)
	}
}

func TestZipfUniformWhenAlphaZero(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	z, err := NewZipf(rng, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 100)
	for i := 0; i < 100000; i++ {
		counts[z.Next()]++
	}
	for r, c := range counts {
		if c < 700 || c > 1300 {
			t.Fatalf("uniform zipf rank %d count %d, want ≈1000", r, c)
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	corpus := testCorpus(t, 10)
	bad := []GenConfig{
		{Duration: 0, Rate: DefaultDiurnal(10, time.Hour), Corpus: corpus},
		{Duration: time.Hour, Rate: Diurnal{}, Corpus: corpus},
		{Duration: time.Hour, Rate: DefaultDiurnal(10, time.Hour)},
	}
	for i, cfg := range bad {
		if err := Generate(cfg, func(Event) bool { return true }); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestGenerateRateAndOrder(t *testing.T) {
	corpus := testCorpus(t, 1000)
	cfg := GenConfig{
		Duration: time.Hour,
		Rate:     DefaultDiurnal(50, time.Hour),
		Corpus:   corpus,
		Seed:     42,
	}
	var events []Event
	if err := Generate(cfg, func(e Event) bool {
		events = append(events, e)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	want := 50 * 3600.0
	if got := float64(len(events)); math.Abs(got-want) > 0.05*want {
		t.Fatalf("generated %d events, want ≈%g", len(events), want)
	}
	for i := 1; i < len(events); i++ {
		if events[i].At < events[i-1].At {
			t.Fatal("events out of order")
		}
	}
	// The first half-period around the peak must carry more traffic
	// than the valley half.
	counter := HourlyCounts(time.Hour, 15*time.Minute)
	for _, e := range events {
		counter.Observe(e.At)
	}
	counts := counter.Counts()
	peakHalf := counts[1] + counts[2] // PeakAt = period/2
	valleyHalf := counts[0] + counts[3]
	if float64(peakHalf) < 1.4*float64(valleyHalf) {
		t.Fatalf("diurnal shape missing: peak half %d vs valley half %d", peakHalf, valleyHalf)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	corpus := testCorpus(t, 100)
	cfg := GenConfig{Duration: time.Minute, Rate: DefaultDiurnal(100, time.Minute), Corpus: corpus, Seed: 9}
	run := func() []Event {
		var out []Event
		if err := Generate(cfg, func(e Event) bool { out = append(out, e); return true }); err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestGenerateEarlyStop(t *testing.T) {
	corpus := testCorpus(t, 100)
	cfg := GenConfig{Duration: time.Hour, Rate: DefaultDiurnal(1000, time.Hour), Corpus: corpus}
	n := 0
	if err := Generate(cfg, func(Event) bool {
		n++
		return n < 10
	}); err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Fatalf("emit called %d times, want 10", n)
	}
}

func TestTraceRoundTrip(t *testing.T) {
	events := []Event{
		{At: 0, Key: "page:0"},
		{At: 1500 * time.Millisecond, Key: "page:42"},
		{At: 3 * time.Hour, Key: "page:99"},
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, events); err != nil {
		t.Fatal(err)
	}
	var got []Event
	if err := ReadTrace(&buf, func(e Event) bool { got = append(got, e); return true }); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("got %d events, want %d", len(got), len(events))
	}
	for i := range events {
		if got[i].Key != events[i].Key {
			t.Fatalf("event %d key = %q, want %q", i, got[i].Key, events[i].Key)
		}
		if d := got[i].At - events[i].At; d < -time.Microsecond || d > time.Microsecond {
			t.Fatalf("event %d time %v, want %v", i, got[i].At, events[i].At)
		}
	}
}

func TestReadTraceSkipsCommentsAndRejectsGarbage(t *testing.T) {
	in := "# comment\n\n1.0 page:1\n"
	n := 0
	if err := ReadTrace(bytes.NewBufferString(in), func(Event) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("parsed %d events, want 1", n)
	}
	for _, bad := range []string{"nokey\n", "x page:1\n", "-1.0 page:1\n", "1.0  \n"} {
		if err := ReadTrace(bytes.NewBufferString(bad), func(Event) bool { return true }); err == nil {
			t.Errorf("ReadTrace(%q) accepted", bad)
		}
	}
}

func TestUserPoolDeterministicSets(t *testing.T) {
	corpus := testCorpus(t, 10000)
	pool, err := NewUserPool(UserPoolConfig{Corpus: corpus, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	a := pool.User(17)
	b := pool.User(17)
	if len(a.Pages) != PagesPerUser {
		t.Fatalf("user has %d pages, want %d", len(a.Pages), PagesPerUser)
	}
	for i := range a.Pages {
		if a.Pages[i] != b.Pages[i] {
			t.Fatal("user page set not deterministic")
		}
	}
	seen := map[string]bool{}
	for _, p := range a.Pages {
		if seen[p] {
			t.Fatalf("duplicate page %s in user set", p)
		}
		seen[p] = true
	}
	c := pool.User(18)
	same := 0
	for _, p := range c.Pages {
		if seen[p] {
			same++
		}
	}
	if same == PagesPerUser {
		t.Fatal("two users share an identical page set")
	}
}

func TestUserNextPageFromOwnSet(t *testing.T) {
	corpus := testCorpus(t, 1000)
	pool, err := NewUserPool(UserPoolConfig{Corpus: corpus})
	if err != nil {
		t.Fatal(err)
	}
	u := pool.User(1)
	inSet := map[string]bool{}
	for _, p := range u.Pages {
		inSet[p] = true
	}
	for i := 0; i < 100; i++ {
		if !inSet[u.NextPage()] {
			t.Fatal("NextPage left the user's set")
		}
	}
	if u.NextThink() != ThinkTime {
		t.Fatalf("think time = %v", u.NextThink())
	}
}

func TestActiveUsers(t *testing.T) {
	// 100 req/s with 0.5s think and 0.1s response needs 60 users.
	if got := ActiveUsers(100, 100*time.Millisecond); got != 60 {
		t.Fatalf("ActiveUsers = %d, want 60", got)
	}
	if got := ActiveUsers(0.1, 0); got != 1 {
		t.Fatalf("ActiveUsers floor = %d, want 1", got)
	}
}

// One draw per simulated or generated request: Next must not allocate.
func TestZipfNextAllocs(t *testing.T) {
	for _, alpha := range []float64{0.8, 0.99} {
		z, err := NewZipf(rand.New(rand.NewSource(1)), alpha, 4096)
		if err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(1000, func() { z.Next() }); allocs != 0 {
			t.Errorf("alpha=%g: Next allocates %.1f times per op, want 0", alpha, allocs)
		}
	}
}

func BenchmarkZipfNext(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	z, err := NewZipf(rng, 0.8, 1<<20)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.Next()
	}
}

func BenchmarkGenerate(b *testing.B) {
	corpus, err := wiki.New(100000, 256)
	if err != nil {
		b.Fatal(err)
	}
	cfg := GenConfig{Duration: time.Minute, Rate: DefaultDiurnal(1000, time.Minute), Corpus: corpus}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		if err := Generate(cfg, func(Event) bool { n++; return true }); err != nil {
			b.Fatal(err)
		}
	}
}
