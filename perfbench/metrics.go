package main

import (
	"fmt"
	"math"
	"sort"
)

// metric is one named number the benchmark prints. The catalogue below is
// the single source of truth; BENCHMARK.json must list the same names and
// units (TestCatalogueMatchesBenchmarkJSON).
type metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Q is the quantile a percentile metric reports (0 for others). A
	// percentile is only reported when at least minBeyond samples rank
	// after it.
	Q float64
}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// endToEnd are the metrics of an untraced run (--trace 0). Every workload
// defines every one of them; README.md gives the per-workload meaning.
// Host metrics are process time; sim_* metrics are virtual time on the
// modelled SoC and carry the unit sim_ms, so they never read as host time.
var endToEnd = []metric{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "call_ms_p50", Unit: "ms", Better: "lower", Q: 0.50},
	{Name: "call_ms_p90", Unit: "ms", Better: "lower", Q: 0.90},
	{Name: "alloc_kb_per_op", Unit: "KiB", Better: "lower"},
	{Name: "heap_mb", Unit: "MiB", Better: "lower"},
	{Name: "sim_slo_pct", Unit: "%", Better: "higher"},
	{Name: "sim_p95_ms", Unit: "sim_ms", Better: "lower", Q: 0.95},
	{Name: "sim_gain_pct", Unit: "%", Better: "higher"},
}

// perLayer are the metrics of a traced run (--trace 1), named
// <module>.<quantity>. A layer the workload does not run reports 0, and so
// does a percentile without minBeyond samples beyond it; the "samples"
// line states every percentile's sample count.
var perLayer = []metric{
	{Name: "profiler.prepare_calls", Unit: "count", Better: "lower"},
	{Name: "profiler.prepare_ms_p50", Unit: "ms", Better: "lower", Q: 0.50},
	{Name: "contention.fit_us", Unit: "us", Better: "lower", Q: 0.50},
	{Name: "solver.nodes", Unit: "count", Better: "lower"},
	{Name: "solver.evals", Unit: "count", Better: "lower"},
	{Name: "solver.solve_ms_p50", Unit: "ms", Better: "lower", Q: 0.50},
	{Name: "solver.solve_ms_p99", Unit: "ms", Better: "lower", Q: 0.99},
	{Name: "solver.nodes_per_s", Unit: "1/s", Better: "higher"},
	{Name: "schedule.evaluate_us_p50", Unit: "us", Better: "lower", Q: 0.50},
	{Name: "sim.run_us_p50", Unit: "us", Better: "lower", Q: 0.50},
	{Name: "sim.measure_calls", Unit: "count", Better: "lower"},
	{Name: "serve.step_us_p50", Unit: "us", Better: "lower", Q: 0.50},
	{Name: "serve.step_us_p99", Unit: "us", Better: "lower", Q: 0.99},
	{Name: "serve.offer_us_p50", Unit: "us", Better: "lower", Q: 0.50},
	{Name: "serve.rounds", Unit: "count", Better: "lower"},
	{Name: "serve.forced_dispatches", Unit: "count", Better: "lower"},
	{Name: "serve.queue_peak", Unit: "count", Better: "lower"},
	{Name: "serve.cache_hits", Unit: "count", Better: "higher"},
	{Name: "serve.cache_misses", Unit: "count", Better: "lower"},
	{Name: "serve.cache_probes", Unit: "count", Better: "lower"},
	{Name: "serve.cache_upgrades", Unit: "count", Better: "higher"},
	{Name: "serve.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "serve.lookup_us_p50", Unit: "us", Better: "lower", Q: 0.50},
	{Name: "fleet.offer_us_p50", Unit: "us", Better: "lower", Q: 0.50},
	{Name: "fleet.offer_us_p99", Unit: "us", Better: "lower", Q: 0.99},
	{Name: "fleet.step_us_p50", Unit: "us", Better: "lower", Q: 0.50},
	{Name: "fleet.devices", Unit: "count", Better: "lower"},
	{Name: "control.advance_ms_p50", Unit: "ms", Better: "lower", Q: 0.50},
	{Name: "control.advance_ms_p99", Unit: "ms", Better: "lower", Q: 0.99},
	{Name: "control.ticks", Unit: "count", Better: "lower"},
	{Name: "control.scale_events", Unit: "count", Better: "lower"},
	{Name: "control.migrations", Unit: "count", Better: "lower"},
	{Name: "control.peak_devices", Unit: "count", Better: "lower"},
	{Name: "shard.gossip_rounds", Unit: "count", Better: "lower"},
	{Name: "shard.gossip_entries_tx", Unit: "count", Better: "lower"},
	{Name: "shard.gossip_entries_rx", Unit: "count", Better: "lower"},
	{Name: "shard.warm_hits", Unit: "count", Better: "higher"},
	{Name: "shard.solve_assists", Unit: "count", Better: "lower"},
	{Name: "shard.deferred", Unit: "count", Better: "lower"},
	{Name: "shard.handoffs", Unit: "count", Better: "lower"},
	{Name: "shard.ms_per_round", Unit: "ms", Better: "lower"},
	{Name: "go.gc_cpu_pct", Unit: "%", Better: "lower"},
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower"},
}

// quantile returns the nearest-rank q-quantile of xs and the number of
// samples ranked after it. xs is sorted in place.
func quantile(xs []float64, q float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	return xs[rank-1], len(xs) - rank
}

// minSamples is the smallest sample count for which quantile q has
// minBeyond samples beyond it.
func minSamples(q float64) int {
	n := minBeyond
	for {
		if _, beyond := quantile(make([]float64, n), q); beyond >= minBeyond {
			return n
		}
		n++
	}
}

// values collects one run's metrics and the sample count behind each
// percentile.
type values struct {
	v       map[string]float64
	samples map[string]int
}

func newValues() *values {
	return &values{v: map[string]float64{}, samples: map[string]int{}}
}

func (vs *values) set(name string, v float64) { vs.v[name] = v }

// pct records a percentile metric from raw samples, scaled by unit. A
// percentile without minBeyond samples beyond it reads 0.
func (vs *values) pct(name string, xs []float64, scale float64) {
	m, ok := lookup(name)
	if !ok || m.Q == 0 {
		panic(fmt.Sprintf("perfbench: %q is not a percentile metric", name))
	}
	v, beyond := quantile(append([]float64(nil), xs...), m.Q)
	vs.samples[name] = len(xs)
	if beyond < minBeyond {
		v = 0
	}
	vs.v[name] = v * scale
}

// median is the 0.5 quantile (for medians of repeated set-ups).
func median(xs []float64) float64 {
	v, _ := quantile(append([]float64(nil), xs...), 0.5)
	return v
}

func lookup(name string) (metric, bool) {
	for _, list := range [][]metric{endToEnd, perLayer} {
		for _, m := range list {
			if m.Name == name {
				return m, true
			}
		}
	}
	return metric{}, false
}

// render builds the result's metrics object over the catalogue, failing
// on a missing value and, for end-to-end metrics, on a percentile that
// lacks samples.
func (vs *values) render(list []metric, strict bool) (map[string]any, error) {
	out := map[string]any{}
	for _, m := range list {
		v, ok := vs.v[m.Name]
		if !ok {
			return nil, fmt.Errorf("perfbench: metric %s not measured", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("perfbench: metric %s is %v", m.Name, v)
		}
		if strict && m.Q > 0 && vs.samples[m.Name] < minSamples(m.Q) {
			return nil, fmt.Errorf("perfbench: %s from %d samples, need %d", m.Name, vs.samples[m.Name], minSamples(m.Q))
		}
		out[m.Name] = map[string]any{"value": v, "unit": m.Unit}
	}
	return out, nil
}

// pctOf records a percentile the program computed itself over n samples
// (for example a serving summary's P95Ms).
func (vs *values) pctOf(name string, v float64, n int) {
	m, _ := lookup(name)
	vs.samples[name] = n
	if n < minSamples(m.Q) {
		v = 0
	}
	vs.v[name] = v
}

// zeroRest sets every per-layer metric a workload left unset to 0: the
// workload does not run that layer.
func zeroRest(vs *values) {
	for _, m := range perLayer {
		if _, ok := vs.v[m.Name]; !ok {
			if m.Q > 0 {
				vs.pct(m.Name, nil, 1)
			} else {
				vs.set(m.Name, 0)
			}
		}
	}
}
