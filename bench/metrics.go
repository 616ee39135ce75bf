package main

import (
	"fmt"
	"math"
)

// metricDef declares one metric the benchmark reports. BENCHMARK.json
// repeats both tables for the driver, and adds to each end-to-end metric
// the bound -compare applies; TestBenchmarkJSONMatchesTables keeps the
// two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd is what a user or operator of the system sees. error_share
// is not in the table because a metric here may never read 0: failures
// are carried by the result's failed/attempted counts and gated by
// -compare.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"throughput_ops", "1/s", "higher"},
	{"latency_p50_us", "us", "lower"},
	{"latency_p99_us", "us", "lower"},
	{"cache_served_share", "ratio", "higher"},
	{"alloc_bytes_per_op", "B/op", "lower"},
	{"live_heap_mb", "MiB", "lower"},
}

// perLayer is keyed by module name. Rungs (…_ns, …_us, …_ms) are timed
// with one caller from outside the layer; counters are deltas over the
// traced workload pass and read 0 on a workload that does not run the
// layer.
var perLayer = []metricDef{
	{"loadgen.schedule_ns_per_op", "ns", "lower"},
	{"loadgen.wake_lag_p50_us", "us", "lower"},
	{"loadgen.wake_lag_p99_us", "us", "lower"},

	{"http.get_p50_us", "us", "lower"},
	{"http.self_us", "us", "lower"},

	{"webtier.fetch_p50_us", "us", "lower"},
	{"webtier.update_p50_us", "us", "lower"},
	{"webtier.fetchmany8_p50_us", "us", "lower"},
	{"webtier.self_us", "us", "lower"},
	{"webtier.fetch_oldcache_p50_us", "us", "lower"},
	{"webtier.hits", "count", "higher"},
	{"webtier.migrated", "count", "lower"},
	{"webtier.digest_false_pos", "count", "lower"},
	{"webtier.db_fetches", "count", "lower"},
	{"webtier.collapsed", "count", "lower"},
	{"webtier.cache_errors", "count", "lower"},
	{"webtier.errors", "count", "lower"},
	{"webtier.migrated_per_remapped", "ratio", "lower"},

	{"cluster.route_ns", "ns", "lower"},
	{"cluster.route_allocs", "count", "lower"},
	{"cluster.route_open_ns", "ns", "lower"},
	{"cluster.setactive_shrink_ms", "ms", "lower"},
	{"cluster.setactive_grow_ms", "ms", "lower"},
	{"cluster.flips", "count", "higher"},

	{"core.lookup_ns", "ns", "lower"},

	{"cacheclient.get_p50_us", "us", "lower"},
	{"cacheclient.set_p50_us", "us", "lower"},
	{"cacheclient.multiget8_p50_us", "us", "lower"},
	{"cacheclient.get_allocs", "count", "lower"},
	{"cacheclient.fetchdigest_ms", "ms", "lower"},
	{"cacheclient.wire_self_us", "us", "lower"},

	{"memproto.parse_get_ns", "ns", "lower"},
	{"memproto.write_value_ns", "ns", "lower"},

	{"cacheserver.get_hits", "count", "higher"},
	{"cacheserver.get_misses", "count", "lower"},
	{"cacheserver.cmd_set", "count", "lower"},
	{"cacheserver.evictions", "count", "lower"},
	{"cacheserver.curr_items", "count", "higher"},

	{"cache.get_ns", "ns", "lower"},
	{"cache.set_ns", "ns", "lower"},

	{"bloom.contains_ns", "ns", "lower"},
	{"bloom.insert_ns", "ns", "lower"},
	{"bloom.snapshot_bytes", "B", "lower"},

	{"database.get_p50_ms", "ms", "lower"},

	{"sim.engine_ns_per_event", "ns", "lower"},
	{"sim.engine_allocs_per_event", "count", "lower"},
	{"sim.req_per_s.static", "1/s", "higher"},
	{"sim.req_per_s.naive", "1/s", "higher"},
	{"sim.req_per_s.consistent", "1/s", "higher"},
	{"sim.req_per_s.proteus", "1/s", "higher"},
	{"sim.allocs_per_req", "count", "lower"},
	{"sim.transitions", "count", "higher"},
	{"sim.proteus_hit_ratio", "ratio", "higher"},
	{"sim.proteus_migrated", "count", "higher"},
	{"sim.proteus_db_queries", "count", "lower"},
	{"sim.naive_db_queries", "count", "lower"},
	{"sim.proteus_p999_ms", "ms", "lower"},
	{"sim.naive_p999_ms", "ms", "lower"},

	{"power.proteus_energy_wh", "Wh", "lower"},
	{"power.static_energy_wh", "Wh", "lower"},

	{"workload.zipf_next_ns", "ns", "lower"},

	{"tail.p999_us", "us", "lower"},
	{"tail.max_ms", "ms", "lower"},
	{"tail.slow_time_share", "ratio", "lower"},
	{"ladder.contention_us", "us", "lower"},
	{"trace.overhead_share", "ratio", "lower"},
}

// metric is one reported value in the driver's result format.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects the values of one table. Every name of the table
// is present in the output; one never set reads 0.
type metricSet struct {
	defs   []metricDef
	values map[string]float64
	// samples[name] is the number of observations behind a value,
	// recorded for every timing so a percentile can be judged.
	samples map[string]int
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, values: map[string]float64{}, samples: map[string]int{}}
}

// set records a value. A name outside the table or a non-finite value
// is a bug in the benchmark, not a measurement.
func (m *metricSet) set(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		panic(fmt.Sprintf("bench: metric %s is not finite", name))
	}
	for _, d := range m.defs {
		if d.Name == name {
			m.values[name] = v
			return
		}
	}
	panic("bench: metric " + name + " is not in the table")
}

func (m *metricSet) setN(name string, v float64, n int) {
	m.set(name, v)
	m.samples[name] = n
}

func (m *metricSet) get(name string) float64 { return m.values[name] }

// out renders the table in the driver's format.
func (m *metricSet) out() map[string]metric {
	res := make(map[string]metric, len(m.defs))
	for _, d := range m.defs {
		res[d.Name] = metric{Value: m.values[d.Name], Unit: d.Unit}
	}
	return res
}
