package experiments

import (
	"fmt"
	"io"
	"strings"

	"proteus/internal/core"
	"proteus/internal/metrics"
	"proteus/internal/sim"
	"proteus/internal/workload"
)

// Fig. 5 scheme labels, in the paper's legend order.
const (
	SchemeStatic         = "Static"
	SchemeNaive          = "Naive"
	SchemeConsistentLogN = "Consistent-logn"
	SchemeConsistentN2   = "Consistent-n2/2"
	SchemeProteus        = "Proteus"
)

// Fig5Schemes lists the compared load-distribution schemes.
func Fig5Schemes() []string {
	return []string{SchemeStatic, SchemeNaive, SchemeConsistentLogN, SchemeConsistentN2, SchemeProteus}
}

// Fig5Result is the paper's Fig. 5: the per-slot min/max load ratio of
// each scheme when the same trace and provisioning plan are replayed
// through it. Static routes over all servers (its fleet never shrinks);
// the dynamic schemes route over the plan's active prefix.
type Fig5Result struct {
	Scale  Scale
	Plan   []int
	Ratios map[string][]float64 // scheme -> per-slot min/max ratio
}

// Fig5 replays the synthetic trace through all five schemes.
func Fig5(scale Scale) (*Fig5Result, error) {
	if err := scale.validate(); err != nil {
		return nil, err
	}
	corpus, err := scale.Corpus()
	if err != nil {
		return nil, err
	}
	rate := workload.DefaultDiurnal(scale.MeanRPS, scale.Duration)
	return fig5Replay(scale, func(emit func(workload.Event) bool) error {
		return workload.Generate(workload.GenConfig{
			Duration: scale.Duration,
			Rate:     rate,
			Corpus:   corpus,
			Seed:     scale.Seed,
		}, emit)
	})
}

// Fig5FromTrace replays a captured trace (the wikibench text format the
// paper uses: "<seconds> <key>" per line) instead of the synthetic
// stream. Timestamps are interpreted relative to the scale's duration;
// events beyond it clamp into the last slot.
func Fig5FromTrace(scale Scale, r io.Reader) (*Fig5Result, error) {
	if err := scale.validate(); err != nil {
		return nil, err
	}
	return fig5Replay(scale, func(emit func(workload.Event) bool) error {
		return workload.ReadTrace(r, emit)
	})
}

// fig5Replay drives one event source through all five routing schemes.
func fig5Replay(scale Scale, source func(emit func(workload.Event) bool) error) (*Fig5Result, error) {
	const servers = 10
	rate := workload.DefaultDiurnal(scale.MeanRPS, scale.Duration)
	plan := sim.PlanProvisioning(rate, scale.Duration, scale.SlotWidth, scale.MeanRPS/7.5, 1, servers)

	placement, err := core.New(servers)
	if err != nil {
		return nil, err
	}
	modulo, err := core.NewModulo(servers)
	if err != nil {
		return nil, err
	}
	logn, err := core.NewConsistentLogN(servers)
	if err != nil {
		return nil, err
	}
	n22, err := core.NewConsistentHalfSquare(servers)
	if err != nil {
		return nil, err
	}
	routers := map[string]core.Backend{
		SchemeStatic:         modulo,
		SchemeNaive:          modulo,
		SchemeConsistentLogN: logn,
		SchemeConsistentN2:   n22,
		SchemeProteus:        placement,
	}

	loads := make(map[string]*metrics.LoadSeries, len(routers))
	for scheme := range routers {
		loads[scheme] = metrics.NewLoadSeries(scale.Duration, scale.SlotWidth, servers)
	}

	err = source(func(e workload.Event) bool {
		slot := int(e.At / scale.SlotWidth)
		if slot >= len(plan) {
			slot = len(plan) - 1
		}
		active := plan[slot]
		for scheme, router := range routers {
			n := active
			if scheme == SchemeStatic {
				n = servers
			}
			loads[scheme].Observe(e.At, router.Lookup(e.Key, n))
		}
		return true
	})
	if err != nil {
		return nil, err
	}

	ratios := make(map[string][]float64, len(loads))
	for scheme, series := range loads {
		out := make([]float64, series.Slots())
		for s := 0; s < series.Slots(); s++ {
			active := plan[s]
			if scheme == SchemeStatic {
				active = servers
			}
			out[s] = series.MinMaxRatio(s, active)
		}
		ratios[scheme] = out
	}
	return &Fig5Result{Scale: scale, Plan: plan, Ratios: ratios}, nil
}

// Worst returns a scheme's worst slot ratio.
func (r *Fig5Result) Worst(scheme string) float64 {
	worst := 1.0
	for _, v := range r.Ratios[scheme] {
		if v < worst {
			worst = v
		}
	}
	return worst
}

// Mean returns a scheme's mean slot ratio.
func (r *Fig5Result) Mean(scheme string) float64 {
	vals := r.Ratios[scheme]
	if len(vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

// Render prints per-slot ratios for every scheme plus a summary.
func (r *Fig5Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 5 — load balance, min/max load ratio per slot (%s scale)\n", r.Scale.Name)
	schemes := Fig5Schemes()
	fmt.Fprintf(&b, "%-6s %-3s", "slot", "n")
	for _, s := range schemes {
		fmt.Fprintf(&b, " %-16s", s)
	}
	b.WriteByte('\n')
	for slot := range r.Plan {
		fmt.Fprintf(&b, "%-6d %-3d", slot, r.Plan[slot])
		for _, s := range schemes {
			fmt.Fprintf(&b, " %-16.3f", r.Ratios[s][slot])
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "\n%-16s %-8s %-8s\n", "scheme", "mean", "worst")
	for _, s := range schemes {
		fmt.Fprintf(&b, "%-16s %-8.3f %-8.3f\n", s, r.Mean(s), r.Worst(s))
	}
	return b.String()
}
