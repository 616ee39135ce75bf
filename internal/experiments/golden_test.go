package experiments

import (
	"os"
	"path/filepath"
	"testing"
)

// TestTinyFiguresMatchRecorded is the figure fence: every tiny-scale
// figure proteus-bench renders from the DES (all but the wall-clock
// scalability table) must come out byte-identical to the copy recorded
// in testdata/tiny. A refactor of the simulator, the placement
// backends or the transition machine that changes any simulated
// outcome fails here. When a change is meant to move the figures,
// regenerate the files and review the diff:
//
//	go run ./cmd/proteus-bench -scale tiny -fig 5,9,10,11,ablations -out internal/experiments/testdata/tiny
//	rm internal/experiments/testdata/tiny/scalability.txt
func TestTinyFiguresMatchRecorded(t *testing.T) {
	scale := Tiny()
	runs, err := RunScenarios(scale)
	if err != nil {
		t.Fatal(err)
	}
	type renderer interface{ Render() string }
	figures := []struct {
		file   string
		render func() (renderer, error)
	}{
		{"fig-5", func() (renderer, error) { return Fig5(scale) }},
		{"fig-9", func() (renderer, error) { return Fig9(runs), nil }},
		{"fig-10", func() (renderer, error) { return Fig10(runs), nil }},
		{"fig-11", func() (renderer, error) { return Fig11(runs), nil }},
		{"digest-ablation", func() (renderer, error) { return AblationDigest(scale) }},
		{"ttl-ablation", func() (renderer, error) { return AblationTTL(scale) }},
		{"controller-ablation", func() (renderer, error) { return AblationController(scale) }},
		{"replication", func() (renderer, error) { return AblationReplication(scale) }},
		{"hot-key-balance", func() (renderer, error) { return HotBalance(scale) }},
	}
	for _, fig := range figures {
		want, err := os.ReadFile(filepath.Join("testdata", "tiny", fig.file+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		res, err := fig.render()
		if err != nil {
			t.Fatalf("%s: %v", fig.file, err)
		}
		if got := res.Render(); got != string(want) {
			t.Errorf("%s differs from testdata/tiny/%s.txt:\n--- got\n%s\n--- want\n%s", fig.file, fig.file, got, want)
		}
	}
}
