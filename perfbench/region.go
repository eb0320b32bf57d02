package main

import (
	"encoding/json"
	"math/rand"
	"sort"
	"time"

	"haxconn/internal/control"
	"haxconn/internal/core"
	"haxconn/internal/fleet"
	"haxconn/internal/obs"
	"haxconn/internal/schedule"
	"haxconn/internal/serve"
	"haxconn/internal/shard"
	"haxconn/internal/soc"
)

// regionShards is K, the shard count of the region plane; regionTraces is
// how many region traces a run generates from its seed (see serveTraces).
const (
	regionShards = 4
	regionTraces = 16
)

// regionWorkload is a shard.Plane with K=4 over shard.DemoRegionControl()
// (48 Orins) serving shard.DemoRegionTrace traces generated from the seed.
// Each pass builds a fresh plane and serves one whole trace; the blocking
// call is shard.New plus Plane.Serve.
type regionWorkload struct {
	traces []serve.Trace
	next   int
	cfg    shard.Config
	// first is each trace's first summary (and its JSON); every pass must
	// match it.
	first    [][]byte
	firstSum []*shard.Summary
	// Counts from the first traced pass.
	counts *obs.Registry
	probe  probeCounts
	rounds int
}

func (w *regionWorkload) setup(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	w.traces, w.next = nil, 0
	for i := 0; i < regionTraces; i++ {
		tr, err := shard.DemoRegionTrace(rng.Int63())
		if err != nil {
			return err
		}
		w.traces = append(w.traces, tr)
	}
	w.first = make([][]byte, regionTraces)
	w.firstSum = make([]*shard.Summary, regionTraces)
	var err error
	w.cfg = shard.Config{Control: shard.DemoRegionControl(), Shards: regionShards}
	// Build a plane as every pass does, so setup_s counts object
	// construction; each pass builds its own.
	_, err = shard.New(w.cfg)
	return err
}

func (w *regionWorkload) cycle() int { return len(w.traces) }

func (w *regionWorkload) pass(tr *tracer, lat *[]float64) (passResult, error) {
	i := w.next % len(w.traces)
	w.next++
	trace := w.traces[i]
	cfg := w.cfg
	var reg *obs.Registry
	if tr != nil && w.counts == nil {
		reg = obs.NewRegistry()
		cfg.Metrics = reg
	}
	tr.begin("pass")
	t0 := time.Now()
	plane, err := shard.New(cfg)
	if err != nil {
		return passResult{}, err
	}
	tr.begin("shard.serve")
	sum, err := plane.Serve(trace)
	tr.end()
	work := time.Since(t0)
	*lat = append(*lat, ms(work))
	tr.end()
	if err != nil {
		return passResult{}, err
	}
	failed := 0
	if !conserved(sum, len(trace)) {
		failed = sum.Total.Offered
	}
	b, err := json.Marshal(sum)
	if err != nil {
		return passResult{}, err
	}
	if w.first[i] == nil {
		w.first[i], w.firstSum[i] = b, sum
	} else if string(b) != string(w.first[i]) {
		failed = sum.Total.Offered
	}
	if tr != nil {
		if reg != nil {
			w.counts, w.rounds = reg, sum.Rounds
		}
		if err := w.probes(tr, trace, reg != nil); err != nil {
			return passResult{}, err
		}
	}
	return passResult{ops: sum.Total.Completed, failed: failed, work: work}, nil
}

// conserved checks that every request is accounted for once across the
// shards and that every gossiped entry reached the other K-1 shards.
func conserved(sum *shard.Summary, requests int) bool {
	t := sum.Total
	if t.Offered != requests || t.Offered != t.Completed+t.Rejected {
		return false
	}
	offered := 0
	for _, ps := range sum.PerShard {
		offered += ps.Control.Fleet.Total.Offered
	}
	return offered == t.Offered && sum.GossipRxEntries == sum.GossipTxEntries*(regionShards-1)
}

// probes replays the region trace through the layers under the plane
// from outside: a global controller advanced one gossip horizon at a
// time (Controller.Start, Driver.Advance); the region pool as a static
// fleet driven through Offer/NextRound/Step, whose schedule cache then
// feeds probeCache; and one serve.Runtime replaying a device's share.
func (w *regionWorkload) probes(tr *tracer, trace serve.Trace, first bool) error {
	tr.begin("probe")
	defer tr.end()
	ctrl, err := control.New(w.cfg.Control)
	if err != nil {
		return err
	}
	drv, err := ctrl.Start(trace)
	if err != nil {
		return err
	}
	period := float64(shard.DefaultGossipEveryTicks) * ctrl.Config().TickMs
	for h := period; ; h += period {
		tr.begin("control.advance")
		more, err := drv.Advance(h)
		tr.end()
		if err != nil {
			return err
		}
		if !more {
			break
		}
	}
	drv.Finish()

	fc := w.cfg.Control.Fleet
	fc.Placement = fleet.LeastLoaded()
	f, err := fleet.New(fc)
	if err != nil {
		return err
	}
	next := 0
	for {
		di, tDev := f.NextRound()
		if next < len(trace) && trace[next].ArrivalMs <= tDev {
			tr.begin("fleet.offer")
			_, _, err := f.Offer(trace[next])
			tr.end()
			if err != nil {
				return err
			}
			next++
			continue
		}
		if di < 0 || f.Devices()[di].QueueDepth() == 0 {
			break
		}
		tr.begin("fleet.step")
		err := f.Step(di)
		tr.end()
		if err != nil {
			return err
		}
	}
	pc, err := probeCache(tr, f.Cache("Orin"), fc.Objective)
	if err != nil {
		return err
	}
	if first {
		w.probe = pc
	}

	// The single-device dispatch path, with contention-aware mix forming,
	// on one device's share of the traffic.
	var share serve.Trace
	for _, r := range trace {
		if serveProbeTenants[r.Tenant] {
			share = append(share, r)
		}
	}
	rt, err := serve.New(serve.Config{Platform: soc.Orin(), MixPolicy: serve.MixContentionAware})
	if err != nil {
		return err
	}
	return replay(rt, share, tr)
}

// serveProbeTenants are the region tenants the serve probe replays on one
// runtime: a camera feed and a scorer outside the hot-tenant overlay.
var serveProbeTenants = map[string]bool{"cam-b": true, "scorer-b": true}

func (w *regionWorkload) finish(vs *values) (int, error) {
	var totals []serve.TenantStats
	for _, sum := range w.firstSum {
		totals = append(totals, sum.Total)
	}
	fc := w.cfg.Control.Fleet
	return 0, simMetrics(vs, totals, soc.Orin(), networksOf(w.traces), fc.Objective)
}

func (w *regionWorkload) layers(vs *values, tr *tracer) error {
	snap := w.counts.Snapshot()
	fillServeCounts(vs, snap)
	for _, name := range []string{"gossip_rounds", "gossip_entries_tx", "gossip_entries_rx", "warm_hits", "solve_assists", "deferred", "handoffs"} {
		vs.set("shard."+name, w.counts.Get("shard."+name))
	}
	if w.rounds > 0 {
		spans := tr.durations("shard.serve", time.Millisecond)
		vs.set("shard.ms_per_round", sum(spans)/float64(len(spans))/float64(w.rounds))
	}
	for _, name := range []string{"ticks", "scale_events", "migrations", "peak_devices"} {
		vs.set("control."+name, regSum(snap, `control\.`+name))
	}
	adv := tr.durations("control.advance", time.Millisecond)
	vs.pct("control.advance_ms_p50", adv, 1)
	vs.pct("control.advance_ms_p99", adv, 1)
	vs.set("fleet.devices", regSum(snap, `fleet\.devices`))
	offers := tr.durations("fleet.offer", time.Microsecond)
	vs.pct("fleet.offer_us_p50", offers, 1)
	vs.pct("fleet.offer_us_p99", offers, 1)
	vs.pct("fleet.step_us_p50", tr.durations("fleet.step", time.Microsecond), 1)
	steps := tr.durations("serve.step", time.Microsecond)
	vs.pct("serve.step_us_p50", steps, 1)
	vs.pct("serve.step_us_p99", steps, 1)
	vs.pct("serve.offer_us_p50", tr.durations("serve.offer", time.Microsecond), 1)
	fillProbeLayers(vs, tr, w.probe)
	zeroRest(vs)
	return nil
}

// simMetrics sets the serving sim_* metrics over a run's traces: SLO
// attainment pooled over every offered request, the mean of the traces'
// p95 latencies, and the paper's gain on the network pairs the traces mix.
func simMetrics(vs *values, totals []serve.TenantStats, p *soc.Platform, nets []string, obj schedule.Objective) error {
	var offered, met, p95 float64
	n := totals[0].Completed
	for _, t := range totals {
		offered += float64(t.Offered)
		met += float64(t.Offered) * t.SLOAttainmentPct() / 100
		p95 += t.P95Ms
		n = min(n, t.Completed)
	}
	vs.set("sim_slo_pct", 100*met/offered)
	vs.pctOf("sim_p95_ms", p95/float64(len(totals)), n)
	gain, err := pairGainPct(p, nets, obj)
	if err != nil {
		return err
	}
	vs.set("sim_gain_pct", gain)
	return nil
}

// pairGainPct is the paper's Table 6/8 quantity on a serving workload's
// own mixes: HaX-CoNN's mean ground-truth gain over the best baseline
// across every two-network mix of the given networks, repeats included.
func pairGainPct(p *soc.Platform, nets []string, obj schedule.Objective) (float64, error) {
	var gains []float64
	for i := range nets {
		for j := i; j < len(nets); j++ {
			cmp, err := core.Compare(core.Request{Platform: p, Networks: []string{nets[i], nets[j]}, Objective: obj})
			if err != nil {
				return 0, err
			}
			gains = append(gains, cmp.Improvement(obj))
		}
	}
	return 100 * sum(gains) / float64(len(gains)), nil
}

// networksOf lists the distinct networks the traces request, sorted.
func networksOf(traces []serve.Trace) []string {
	seen := map[string]bool{}
	var out []string
	for _, tr := range traces {
		for _, r := range tr {
			if !seen[r.Network] {
				seen[r.Network] = true
				out = append(out, r.Network)
			}
		}
	}
	sort.Strings(out)
	return out
}
