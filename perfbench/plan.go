package main

import (
	"fmt"
	"math/rand"
	"time"

	"haxconn/internal/baselines"
	"haxconn/internal/contention"
	"haxconn/internal/core"
	"haxconn/internal/nn"
	"haxconn/internal/schedule"
	"haxconn/internal/sim"
	"haxconn/internal/soc"
	"haxconn/internal/solver"
)

// planWorkload is a closed loop of one caller: each op is one core.Compare
// — plan a network pair, then measure HaX-CoNN and the five baselines on
// the ground-truth simulator. The problems are every pair of
// nn.EvaluationSet() on Orin, Xavier and SD865 under both objectives, in
// a seeded order; a phase cycles through them.
type planWorkload struct {
	reqs []core.Request
	next int
	// first holds each problem's outcome from its first untraced plan;
	// later plans, traced ones included, must reproduce it exactly.
	first []*planOutcome
	// Per-cycle counts from the traced phase's first full cycle.
	nodes, evals, measures, traced int
}

// neverWorseTol is how far HaX-CoNN's ground-truth result may fall below
// the best baseline's before a plan fails its check: the paper's
// never-worse guarantee holds under the contention model the solver
// optimizes, and the repository's own gates (core's
// TestNeverWorseThanBaselines, TestReproductionGate) allow the same 2% for
// model-versus-ground-truth error.
const neverWorseTol = 0.02

// planOutcome is what a plan must reproduce run after run.
type planOutcome struct {
	predicted, measured, fps float64
	baselines                map[string][2]float64 // measured ms, FPS
	gain                     float64               // over the best baseline
}

func (w *planWorkload) setup(seed int64) error {
	nets := nn.EvaluationSet()
	var reqs []core.Request
	for _, p := range []*soc.Platform{soc.Orin(), soc.Xavier(), soc.SD865()} {
		for i := range nets {
			for j := i + 1; j < len(nets); j++ {
				for _, obj := range []schedule.Objective{schedule.MinMaxLatency, schedule.MaxThroughput} {
					reqs = append(reqs, core.Request{Platform: p, Networks: []string{nets[i].Name, nets[j].Name}, Objective: obj})
				}
			}
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	w.reqs, w.next = reqs, 0
	w.first = make([]*planOutcome, len(reqs))
	return nil
}

func (w *planWorkload) cycle() int { return len(w.reqs) }

func (w *planWorkload) pass(tr *tracer, lat *[]float64) (passResult, error) {
	i := w.next % len(w.reqs)
	w.next++
	req := w.reqs[i]
	if tr != nil {
		return w.tracedPlan(tr, i, req, lat), nil
	}
	t0 := time.Now()
	cmp, err := core.Compare(req)
	work := time.Since(t0)
	*lat = append(*lat, ms(work))
	if err != nil {
		return passResult{ops: 1, failed: 1, work: work}, nil
	}
	out := outcome(req.Objective, cmp.HaXCoNN, cmp.Baselines)
	return passResult{ops: 1, failed: w.check(i, out), work: work}, nil
}

// check counts a failed op when the plan is worse than the best baseline
// or differs from the problem's first plan.
func (w *planWorkload) check(i int, out *planOutcome) int {
	if w.first[i] == nil {
		w.first[i] = out
	} else if !sameOutcome(w.first[i], out) {
		return 1
	}
	if out.gain < -neverWorseTol {
		return 1
	}
	return 0
}

func outcome(obj schedule.Objective, hax *core.Result, base map[string]*core.Result) *planOutcome {
	cmp := &core.Comparison{HaXCoNN: hax, Baselines: base}
	out := &planOutcome{predicted: hax.PredictedMs, measured: hax.MeasuredMs, fps: hax.FPS,
		baselines: map[string][2]float64{}, gain: cmp.Improvement(obj)}
	for name, r := range base {
		out.baselines[name] = [2]float64{r.MeasuredMs, r.FPS}
	}
	return out
}

func sameOutcome(a, b *planOutcome) bool {
	if a.predicted != b.predicted || a.measured != b.measured || a.fps != b.fps || len(a.baselines) != len(b.baselines) {
		return false
	}
	for name, v := range a.baselines {
		if b.baselines[name] != v {
			return false
		}
	}
	return true
}

// tracedPlan composes core.Compare from its public steps — Prepare, Model,
// OptimizeBB, Measure — with a span around each, so each layer's time is
// seen on its own. The composition must reproduce core.Compare exactly.
// Afterwards a probe evaluates the chosen schedule under the analytic
// contention model (schedule.Evaluate with sim.ModelArbiter).
func (w *planWorkload) tracedPlan(tr *tracer, i int, req core.Request, lat *[]float64) passResult {
	t0 := time.Now()
	tr.begin("pass")
	hax, base, model, st, err := composedCompare(tr, req)
	tr.end()
	r := passResult{ops: 1, failed: 1, work: time.Since(t0)}
	*lat = append(*lat, ms(r.work))
	if err != nil {
		return r
	}
	if w.traced < len(w.reqs) {
		w.traced++
		w.nodes += st.Nodes
		w.evals += st.Evals
		w.measures += 1 + len(base)
	}
	tr.begin("probe")
	tr.begin("schedule.evaluate")
	_, err = schedule.Evaluate(hax.Problem, hax.Profile, hax.Schedule, sim.ModelArbiter{Model: model})
	tr.end()
	tr.end()
	if err == nil {
		r.failed = w.check(i, outcome(req.Objective, hax, base))
	}
	return r
}

func composedCompare(tr *tracer, req core.Request) (*core.Result, map[string]*core.Result, contention.Model, solver.Stats, error) {
	var st solver.Stats
	tr.begin("profiler.prepare")
	prob, pr, err := core.Prepare(req)
	tr.end()
	if err != nil {
		return nil, nil, nil, st, err
	}
	tr.begin("contention.fit")
	model, err := core.Model(req)
	tr.end()
	if err != nil {
		return nil, nil, nil, st, err
	}
	cfg := solver.Config{Model: model, Seeds: []*schedule.Schedule{baselines.GPUOnly(pr), baselines.NaiveConcurrent(pr)}}
	tr.begin("solver.solve")
	best, cost, st, err := solver.OptimizeBB(prob, pr, cfg)
	tr.end()
	if err != nil {
		return nil, nil, nil, st, err
	}
	hax, err := measured(tr, prob, pr, best)
	if err != nil {
		return nil, nil, nil, st, err
	}
	hax.PredictedMs = cost
	if prob.Objective == schedule.MaxThroughput {
		hax.PredictedMs = -cost
	}
	base := map[string]*core.Result{}
	all := baselines.All(pr)
	for _, name := range baselines.Names {
		r, err := measured(tr, prob, pr, all[name])
		if err != nil {
			return nil, nil, nil, st, fmt.Errorf("measuring %s: %w", name, err)
		}
		base[name] = r
	}
	return hax, base, model, st, nil
}

func measured(tr *tracer, prob *schedule.Problem, pr *schedule.Profile, s *schedule.Schedule) (*core.Result, error) {
	tr.begin("sim.run")
	defer tr.end()
	return core.Measure(prob, pr, s)
}

func (w *planWorkload) finish(vs *values) (int, error) {
	var gains, lat []float64
	meets := 0
	for i, out := range w.first {
		if out == nil {
			return 0, fmt.Errorf("plan: problem %d never planned", i)
		}
		gains = append(gains, out.gain)
		lat = append(lat, out.measured)
		if out.gain >= 0 {
			meets++
		}
	}
	vs.set("sim_gain_pct", 100*sum(gains)/float64(len(gains)))
	// The plan's target is the best baseline's ground-truth result; this
	// is the share of problems that reach it without tolerance.
	vs.set("sim_slo_pct", 100*float64(meets)/float64(len(w.first)))
	vs.pct("sim_p95_ms", lat, 1)
	return 0, nil
}

func (w *planWorkload) layers(vs *values, tr *tracer) error {
	vs.set("profiler.prepare_calls", float64(w.traced))
	vs.pct("profiler.prepare_ms_p50", tr.durations("profiler.prepare", time.Millisecond), 1)
	vs.pct("contention.fit_us", tr.durations("contention.fit", time.Microsecond), 1)
	vs.set("solver.nodes", float64(w.nodes))
	vs.set("solver.evals", float64(w.evals))
	solves := tr.durations("solver.solve", time.Millisecond)
	vs.pct("solver.solve_ms_p50", solves, 1)
	vs.pct("solver.solve_ms_p99", solves, 1)
	// Mean nodes per solve over mean host time per solve.
	vs.set("solver.nodes_per_s", float64(w.nodes)/float64(w.traced)/(tr.total("solver.solve").Seconds()/float64(len(solves))))
	vs.pct("schedule.evaluate_us_p50", tr.durations("schedule.evaluate", time.Microsecond), 1)
	vs.pct("sim.run_us_p50", tr.durations("sim.run", time.Microsecond), 1)
	vs.set("sim.measure_calls", float64(w.measures))
	zeroRest(vs)
	return nil
}
