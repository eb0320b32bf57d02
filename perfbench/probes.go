package main

import (
	"fmt"
	"regexp"
	"time"

	"haxconn/internal/contention"
	"haxconn/internal/core"
	"haxconn/internal/obs"
	"haxconn/internal/schedule"
	"haxconn/internal/serve"
	"haxconn/internal/sim"
)

// replay is Runtime.Serve's loop over a trace sorted by arrival, on a fresh
// runtime, with a span around each Offer and Step.
func replay(rt *serve.Runtime, reqs serve.Trace, tr *tracer) error {
	next := 0
	for next < len(reqs) || rt.QueueDepth() > 0 {
		if next < len(reqs) && reqs[next].ArrivalMs <= rt.NextStartMs() {
			tr.begin("serve.offer")
			_, err := rt.Offer(reqs[next])
			tr.end()
			if err != nil {
				return err
			}
			next++
			continue
		}
		tr.begin("serve.step")
		err := rt.Step()
		tr.end()
		if err != nil {
			return err
		}
	}
	return nil
}

// fillServeCounts copies the dispatch and cache counters out of a
// registry snapshot, summed over devices and shards.
func fillServeCounts(vs *values, snap []obs.Metric) {
	vs.set("serve.rounds", regSum(snap, `serve\.[^.]+\.rounds`))
	vs.set("serve.forced_dispatches", regSum(snap, `serve\.[^.]+\.forced_dispatches`))
	vs.set("serve.queue_peak", regMax(snap, `serve\.[^.]+\.queue_peak`))
	vs.set("profiler.prepare_calls", regSum(snap, `serve\.[^.]+\.prepare_calls`))
	hits, misses := regSum(snap, `cache\.[^.]+\.hits`), regSum(snap, `cache\.[^.]+\.misses`)
	vs.set("serve.cache_hits", hits)
	vs.set("serve.cache_misses", misses)
	vs.set("serve.cache_probes", regSum(snap, `cache\.[^.]+\.probes`))
	vs.set("serve.cache_upgrades", regSum(snap, `cache\.[^.]+\.upgrades`))
	if hits+misses > 0 {
		vs.set("serve.cache_hit_ratio", hits/(hits+misses))
	}
	vs.set("solver.nodes", regSum(snap, `cache\.[^.]+\.solver_nodes`))
}

// regMatch selects the registry entries named by pattern, with or without
// a sharded plane's "shard<k>." prefix.
func regMatch(snap []obs.Metric, pattern string) []float64 {
	re := regexp.MustCompile(`^(shard\d+\.)?` + pattern + `$`)
	var out []float64
	for _, m := range snap {
		if re.MatchString(m.Name) {
			out = append(out, m.Value)
		}
	}
	return out
}

func regSum(snap []obs.Metric, pattern string) float64 { return sum(regMatch(snap, pattern)) }

func regMax(snap []obs.Metric, pattern string) float64 {
	var m float64
	for _, v := range regMatch(snap, pattern) {
		m = max(m, v)
	}
	return m
}

// probeCounts is the work a cache probe issued.
type probeCounts struct {
	nodes, evals, measures int
}

// probeCache times each layer on the mixes a serving cache solved: a
// Cache.Lookup hit per mix, then that mix's characterization
// (core.Prepare), its solve as the cache runs it (core.AnytimeFromProfile),
// the analytic-model evaluation of its best schedule (schedule.Evaluate
// under sim.ModelArbiter) and its ground-truth measurement (core.Measure),
// plus one contention-model fit for the cache's platform. It runs after
// the pass's summary is taken, so its lookups change no reported count.
func probeCache(tr *tracer, c *serve.Cache, obj schedule.Objective) (probeCounts, error) {
	var pc probeCounts
	tr.begin("contention.fit")
	model, err := contention.FitPCCS(c.Platform().SatBW(), 16)
	tr.end()
	if err != nil {
		return pc, err
	}
	for _, snap := range c.Export().Entries {
		tr.begin("serve.lookup")
		e, hit, err := c.Lookup(snap.Networks, 0)
		tr.end()
		if err != nil {
			return pc, err
		}
		if !hit {
			return pc, fmt.Errorf("probe: exported mix %v missed the cache", snap.Networks)
		}
		req := core.Request{Platform: c.Platform(), Networks: snap.Networks, Objective: obj}
		tr.begin("profiler.prepare")
		_, _, err = core.Prepare(req)
		tr.end()
		if err != nil {
			return pc, err
		}
		tr.begin("solver.solve")
		sol, err := core.AnytimeFromProfile(req, e.Prob, e.Profile)
		tr.end()
		if err != nil {
			return pc, err
		}
		pc.nodes += sol.Stats.Nodes
		pc.evals += sol.Stats.Evals
		best := e.Best()
		if best == nil {
			best = e.Naive
		}
		tr.begin("schedule.evaluate")
		_, err = schedule.Evaluate(e.Prob, e.Profile, best, sim.ModelArbiter{Model: model})
		tr.end()
		if err != nil {
			return pc, err
		}
		tr.begin("sim.run")
		_, err = core.Measure(e.Prob, e.Profile, best)
		tr.end()
		if err != nil {
			return pc, err
		}
		pc.measures++
	}
	return pc, nil
}

// fillProbeLayers sets the per-layer metrics probeCache's spans feed.
func fillProbeLayers(vs *values, tr *tracer, pc probeCounts) {
	vs.pct("serve.lookup_us_p50", tr.durations("serve.lookup", time.Microsecond), 1)
	vs.pct("profiler.prepare_ms_p50", tr.durations("profiler.prepare", time.Millisecond), 1)
	vs.pct("contention.fit_us", tr.durations("contention.fit", time.Microsecond), 1)
	solves := tr.durations("solver.solve", time.Millisecond)
	vs.pct("solver.solve_ms_p50", solves, 1)
	vs.pct("solver.solve_ms_p99", solves, 1)
	vs.set("solver.evals", float64(pc.evals))
	if d := tr.total("solver.solve").Seconds(); d > 0 && pc.measures > 0 {
		// Mean nodes per probe solve over mean host time per probe solve.
		vs.set("solver.nodes_per_s", float64(pc.nodes)/float64(pc.measures)/(d/float64(len(solves))))
	}
	vs.pct("schedule.evaluate_us_p50", tr.durations("schedule.evaluate", time.Microsecond), 1)
	vs.pct("sim.run_us_p50", tr.durations("sim.run", time.Microsecond), 1)
	vs.set("sim.measure_calls", float64(pc.measures))
}
