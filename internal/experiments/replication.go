package experiments

import (
	"fmt"
	"strings"
	"time"

	"proteus/internal/core"
	"proteus/internal/sim"
)

// ReplicationResult is the Section III-E fault-tolerance experiment:
// the same compressed day with one cache server crashing mid-run
// (unplanned — no transition, data simply gone), at replication factors
// r = 1, 2, 3. The table reports the crash's cost in database queries
// and tail latency, plus Eq. 3's no-conflict probability at the
// realised fleet sizes.
type ReplicationResult struct {
	Scale Scale
	// Baseline is the crash-free r=1 run's DB query count.
	BaselineDB uint64
	// Rows per replication factor.
	Replicas    []int
	DBQueries   []uint64
	ExtraDB     []uint64 // vs crash-free baseline
	WorstP999   []time.Duration
	ReplicaHits []uint64
	// NoConflict is Eq. 3 evaluated at 10 active servers.
	NoConflict []float64
}

// AblationReplication runs the experiment.
func AblationReplication(scale Scale) (*ReplicationResult, error) {
	if err := scale.validate(); err != nil {
		return nil, err
	}
	corpus, err := scale.Corpus()
	if err != nil {
		return nil, err
	}
	// The crash-free r=1 baseline first, then one crashed run per r.
	cfgs := []sim.Config{scale.config(sim.ScenarioProteus, corpus)}
	replicas := []int{1, 2, 3}
	for _, r := range replicas {
		cfg := scale.config(sim.ScenarioProteus, corpus)
		cfg.Replicas = r
		cfg.CrashAt = scale.Duration / 2
		cfg.CrashServer = 2
		cfgs = append(cfgs, cfg)
	}
	results, err := sim.RunAll(cfgs...)
	if err != nil {
		return nil, fmt.Errorf("experiments: replication: %w", err)
	}
	out := &ReplicationResult{Scale: scale, BaselineDB: results[0].Stats.DBQueries}
	for i, r := range replicas {
		res := results[i+1]
		out.Replicas = append(out.Replicas, r)
		out.DBQueries = append(out.DBQueries, res.Stats.DBQueries)
		extra := uint64(0)
		if res.Stats.DBQueries > out.BaselineDB {
			extra = res.Stats.DBQueries - out.BaselineDB
		}
		out.ExtraDB = append(out.ExtraDB, extra)
		out.WorstP999 = append(out.WorstP999, worstQuantile(res, 0.999))
		out.ReplicaHits = append(out.ReplicaHits, res.Stats.ReplicaHits)
		out.NoConflict = append(out.NoConflict, core.NoConflictProbability(r, 10))
	}
	return out, nil
}

// Render prints the fault-tolerance table.
func (r *ReplicationResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Replication — Section III-E fault tolerance under a mid-run crash (%s scale)\n", r.Scale.Name)
	fmt.Fprintf(&b, "crash-free baseline: %d db queries\n", r.BaselineDB)
	fmt.Fprintf(&b, "%-4s %-10s %-12s %-14s %-13s %-12s\n",
		"r", "db gets", "crash cost", "worst p99.9", "replica hits", "Eq.3 Pnc")
	for i := range r.Replicas {
		fmt.Fprintf(&b, "%-4d %-10d %-12d %-14s %-13d %-12.3f\n",
			r.Replicas[i], r.DBQueries[i], r.ExtraDB[i],
			fmtMS(r.WorstP999[i]), r.ReplicaHits[i], r.NoConflict[i])
	}
	b.WriteString("(a crash with r=1 leaks its keys to the database for the rest of the\n" +
		" day; with r>=2 surviving copies absorb almost all of it)\n")
	return b.String()
}
