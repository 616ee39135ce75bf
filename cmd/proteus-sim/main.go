// Command proteus-sim runs one discrete-event simulation of the cache
// cluster with full control over the knobs the figures fix: scenario,
// replication, crash injection, TTL, provisioning policy. Output is a
// human summary plus optional CSV series for plotting.
//
// Usage:
//
//	proteus-sim -scenario proteus [-duration 8m] [-mean-rps 600]
//	            [-replicas 2] [-crash-at 4m -crash-server 2]
//	            [-ttl 20s] [-controller] [-no-digest]
//	            [-csv latency|power|plan|load]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"proteus/internal/provision"
	"proteus/internal/sim"
	"proteus/internal/wiki"
	"proteus/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("proteus-sim: ")

	scenarioName := flag.String("scenario", "proteus", "static, naive, consistent or proteus")
	duration := flag.Duration("duration", 8*time.Minute, "compressed-day length")
	meanRPS := flag.Float64("mean-rps", 600, "mean offered load")
	corpusPages := flag.Int("corpus-pages", 50000, "page population")
	cachePages := flag.Int("cache-pages", 4000, "pages per cache server")
	servers := flag.Int("servers", 10, "cache servers")
	slot := flag.Duration("slot", 10*time.Second, "provisioning slot width")
	ttl := flag.Duration("ttl", 0, "hot-data window (0 = 2x slot)")
	replicas := flag.Int("replicas", 1, "Section III-E replication factor")
	crashAt := flag.Duration("crash-at", 0, "crash a server this far into the run (0 = no crash)")
	crashServer := flag.Int("crash-server", 2, "which server crashes")
	noDigest := flag.Bool("no-digest", false, "ablate the digest (transitions go to the database)")
	controller := flag.Bool("controller", false, "derive provisioning from the delay-feedback controller")
	seed := flag.Int64("seed", 1, "determinism seed")
	csvOut := flag.String("csv", "", "emit a CSV series: latency, power, plan or load")
	tracePath := flag.String("trace", "", "replay this wikibench-format trace open-loop instead of closed-loop RBE users")
	flag.Parse()

	var scenario sim.Scenario
	switch strings.ToLower(*scenarioName) {
	case "static":
		scenario = sim.ScenarioStatic
	case "naive":
		scenario = sim.ScenarioNaive
	case "consistent":
		scenario = sim.ScenarioConsistent
	case "proteus":
		scenario = sim.ScenarioProteus
	default:
		log.Fatalf("unknown scenario %q", *scenarioName)
	}

	corpus, err := wiki.New(*corpusPages, wiki.DefaultPageSize)
	if err != nil {
		log.Fatal(err)
	}
	cfg := sim.NewConfig(scenario, corpus, *duration, *meanRPS)
	cfg.CacheServers = *servers
	cfg.CachePagesPerServer = *cachePages
	cfg.SlotWidth = *slot
	cfg.Warmup = *duration / 8
	cfg.TTL = *ttl
	if cfg.TTL == 0 {
		cfg.TTL = 2 * *slot
	}
	cfg.BootDelay = *slot / 16
	cfg.LatencySlots = 96
	cfg.PowerEvery = *duration / 96
	cfg.Replicas = *replicas
	cfg.CrashAt = *crashAt
	cfg.CrashServer = *crashServer
	cfg.DisableDigest = *noDigest
	cfg.Seed = *seed
	if *controller {
		cfg.Policy = provision.LegacyController{
			Reference:         200 * time.Millisecond,
			Bound:             300 * time.Millisecond,
			PerServerCapacity: cfg.PerServerCapacity,
			Min:               1,
			Max:               cfg.CacheServers,
		}
	}
	if *tracePath != "" {
		f, err := os.Open(*tracePath)
		if err != nil {
			log.Fatal(err)
		}
		err = workload.ReadTrace(f, func(e workload.Event) bool {
			cfg.Trace = append(cfg.Trace, e)
			return true
		})
		f.Close()
		if err != nil {
			log.Fatalf("trace: %v", err)
		}
		log.Printf("replaying %d trace events open-loop", len(cfg.Trace))
	}

	res, err := sim.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}

	switch *csvOut {
	case "":
		printSummary(res)
	case "latency":
		fmt.Println("slot,p50_ms,p99_ms,p999_ms,count")
		for i := 0; i < res.Latency.Slots(); i++ {
			h := res.Latency.Slot(i)
			fmt.Printf("%d,%.3f,%.3f,%.3f,%d\n", i,
				ms(h.Quantile(0.5)), ms(h.Quantile(0.99)), ms(h.Quantile(0.999)), h.Count())
		}
	case "power":
		times, watts := res.Meter.TotalSeries()
		fmt.Println("t_seconds,total_watts")
		for i := range times {
			fmt.Printf("%.0f,%.1f\n", times[i].Seconds(), watts[i])
		}
	case "plan":
		fmt.Println("slot,servers")
		for i, n := range res.Plan {
			fmt.Printf("%d,%d\n", i, n)
		}
	case "load":
		fmt.Println("slot,active,min_max_ratio,total")
		for s := 0; s < res.Load.Slots(); s++ {
			active := res.Plan[s]
			fmt.Printf("%d,%d,%.4f,%d\n", s, active, res.Load.MinMaxRatio(s, active), res.Load.SlotTotal(s))
		}
	default:
		log.Fatalf("unknown csv series %q", *csvOut)
	}
}

func printSummary(res *sim.Result) {
	total := res.Latency.Total()
	var worst time.Duration
	for _, q := range res.Latency.Quantiles(0.999) {
		if q > worst {
			worst = q
		}
	}
	fmt.Printf("scenario       %v\n", res.Scenario)
	fmt.Printf("requests       %d\n", res.Stats.Requests)
	fmt.Printf("hit ratio      %.4f (replica hits %d)\n", res.Stats.HitRatio(), res.Stats.ReplicaHits)
	fmt.Printf("latency        mean=%v p99=%v p99.9=%v worst-slot-p99.9=%v\n",
		total.Mean().Truncate(time.Microsecond),
		total.Quantile(0.99).Truncate(time.Microsecond),
		total.Quantile(0.999).Truncate(time.Microsecond),
		worst.Truncate(time.Microsecond))
	fmt.Printf("transitions    %d (migrated %d, digest false pos %d, digest misses %d)\n",
		res.Stats.Transitions, res.Stats.MigratedOnDemand, res.Stats.DigestFalsePos, res.Stats.DigestMisses)
	fmt.Printf("database       %d queries\n", res.Stats.DBQueries)
	fmt.Printf("energy         cache %.1f Wh, cluster (web+cache+db) %.1f Wh\n",
		res.Meter.EnergyWh("cache"), res.Meter.TotalEnergyWh("web", "cache", "db"))
	min, max := res.Plan[0], res.Plan[0]
	for _, n := range res.Plan {
		if n < min {
			min = n
		}
		if n > max {
			max = n
		}
	}
	fmt.Printf("plan           %d..%d servers over %d slots\n", min, max, len(res.Plan))
	fmt.Printf("by source      hit n=%d mean=%v | migrated n=%d mean=%v | db n=%d mean=%v\n",
		res.SourceLatency(sim.SourceHit).Count(), res.SourceLatency(sim.SourceHit).Mean().Truncate(time.Microsecond),
		res.SourceLatency(sim.SourceMigrated).Count(), res.SourceLatency(sim.SourceMigrated).Mean().Truncate(time.Microsecond),
		res.SourceLatency(sim.SourceDB).Count(), res.SourceLatency(sim.SourceDB).Mean().Truncate(time.Microsecond))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
