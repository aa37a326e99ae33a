package main

import (
	"fmt"
	"slices"
	"strings"
)

// metricDef names one metric of the JSON result line and its unit. The
// two lists below are BENCHMARK.json's end_to_end and per_layer entries;
// a test keeps them in step.
type metricDef struct{ name, unit string }

// endToEnd is printed with --trace 0. The latency is of reads at the
// reference rate. The read p99 and qps_at_slo are printed but are not
// among them: on a shared machine they move with the other tenants beyond
// any bound a change could be held to (see README.md).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"cpu_us_per_op", "us"},
	{"heap_mb", "MiB"},
}

// perLayer is printed with --trace 1.
var perLayer = []metricDef{
	// Untraced reference window: counter deltas and direct timings.
	{"cache.hit_rate", "ratio"},
	{"cache.evictions_per_query", "count"},
	{"storage.gets_per_query", "count"},
	{"router.pick_ns", "ns"},
	{"router.queue_depth_p99", "count"},
	{"router.imbalance", "ratio"},
	{"router.stolen_frac", "ratio"},
	{"go.allocs_per_op", "count"},
	{"go.gc_cpu_frac", "ratio"},
	{"gen.lag_p99_ms", "ms"},
	// Set-up.
	{"setup.load_s", "s"},
	{"setup.router_s", "s"},
	{"setup.embed_s", "s"},
	// Traced run.
	{"router.self_us", "us"},
	{"processor.self_us", "us"},
	{"rpc.client_us", "us"},
	{"rpc.hop_us.client_router", "us"},
	{"rpc.hop_us.router_proc", "us"},
	{"rpc.hop_us.proc_storage", "us"},
	{"rpc.hop_us.router_storage", "us"},
	{"rpc.bytes_per_query", "B"},
	{"mquery.proc_calls_per_query", "count"},
	{"storage.rounds_per_query", "count"},
	{"storage.round_us", "us"},
	{"storage.bytes_per_query", "B"},
	{"class.neighbor-agg.p50_us", "us"},
	{"class.pattern-match.p50_us", "us"},
	{"class.random-walk.p50_us", "us"},
	{"class.k-nearest.p50_us", "us"},
	{"class.bounded-reach.p50_us", "us"},
	{"class.reachability.p50_us", "us"},
	{"class.write.p50_us", "us"},
	{"mutate.storage_calls_per_write", "count"},
	{"mutate.evict_calls_per_write", "count"},
	{"mutate.self_us", "us"},
	{"kvstore.wal_bytes_per_write", "B"},
	{"trace.overhead_frac", "ratio"},
	{"trace.accounted_frac", "ratio"},
}

// report collects a run's metrics and their printed lines.
type report struct {
	lines   []string
	metrics map[string]metricValue
}

// add records a metric for the JSON line and prints it with its unit and
// sample count.
func (rp *report) add(name string, v float64, unit string, n int) {
	if rp.metrics == nil {
		rp.metrics = map[string]metricValue{}
	}
	rp.metrics[name] = metricValue{Value: v, Unit: unit}
	rp.lines = append(rp.lines, metricLine(name, v, unit, n))
}

// metricLine prints a metric with its unit and sample count.
func metricLine(name string, v float64, unit string, n int) string {
	return fmt.Sprintf("  %-34s %14.6g %-6s n=%d", name, v, unit, n)
}

// check reports any difference between the recorded metrics and defs.
func (rp *report) check(defs []metricDef) error {
	var bad []string
	for _, d := range defs {
		if m, ok := rp.metrics[d.name]; !ok || m.Unit != d.unit {
			bad = append(bad, d.name)
		}
	}
	for name := range rp.metrics {
		if !slices.ContainsFunc(defs, func(d metricDef) bool { return d.name == name }) {
			bad = append(bad, name)
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("metrics missing, extra or with the wrong unit: %s", strings.Join(bad, ", "))
	}
	return nil
}
