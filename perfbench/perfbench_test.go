package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"haxconn/internal/obs"
	"haxconn/internal/shard"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, list := range [][]metric{endToEnd, perLayer} {
		for _, m := range list {
			if !nameRE.MatchString(m.Name) {
				t.Errorf("metric name %q does not match %s", m.Name, nameRE)
			}
			if !unitRE.MatchString(m.Unit) {
				t.Errorf("metric %s: unit %q does not match %s", m.Name, m.Unit, unitRE)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("metric %s: better %q", m.Name, m.Better)
			}
			if seen[m.Name] {
				t.Errorf("metric %s listed twice", m.Name)
			}
			seen[m.Name] = true
		}
	}
}

// TestCatalogueMatchesBenchmarkJSON keeps BENCHMARK.json and the metrics
// the program prints in step.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
		Workloads []struct{ Name string }               `json:"workloads"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metric) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, m := range want {
			if g := got[i]; g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the program %+v", kind, i, g, m)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
	for _, w := range doc.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(doc.Workloads), len(workloads))
	}
}

// TestPercentileNeedsTenBeyond: a percentile is reported only with at
// least ten samples beyond it.
func TestPercentileNeedsTenBeyond(t *testing.T) {
	for q, want := range map[float64]int{0.5: 20, 0.9: 100, 0.95: 200, 0.99: 1000} {
		if got := minSamples(q); got != want {
			t.Errorf("minSamples(%v) = %d, want %d", q, got, want)
		}
	}
	xs := make([]float64, 999)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	vs := newValues()
	vs.pct("solver.solve_ms_p99", xs, 1)
	if v := vs.v["solver.solve_ms_p99"]; v != 0 {
		t.Errorf("p99 of 999 samples reported as %v, want 0 (not enough beyond it)", v)
	}
	xs = append(xs, 1000)
	vs.pct("solver.solve_ms_p99", xs, 1)
	if v := vs.v["solver.solve_ms_p99"]; v != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", v)
	}
	// An end-to-end percentile without enough samples fails the run.
	vs = newValues()
	for _, m := range endToEnd {
		vs.set(m.Name, 1)
	}
	vs.pct("call_ms_p90", make([]float64, 99), 1)
	if _, err := vs.render(endToEnd, true); err == nil {
		t.Error("render accepted call_ms_p90 from 99 samples")
	}
}

// TestSetupExcludesCharacterization: set-up generates inputs and builds
// objects but plans and serves nothing, so no characterization lands in
// setup_s; the passes characterize.
func TestSetupExcludesCharacterization(t *testing.T) {
	p := &planWorkload{}
	if err := p.setup(1); err != nil {
		t.Fatal(err)
	}
	for i, out := range p.first {
		if out != nil {
			t.Fatalf("plan set-up planned problem %d", i)
		}
	}
	w := &regionWorkload{}
	if err := w.setup(1); err != nil {
		t.Fatal(err)
	}
	for i, b := range w.first {
		if b != nil {
			t.Fatalf("region set-up served trace %d", i)
		}
	}
	cfg := w.cfg
	cfg.Metrics = obs.NewRegistry()
	plane, err := shard.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plane.Serve(w.traces[0]); err != nil {
		t.Fatal(err)
	}
	if n := regSum(cfg.Metrics.Snapshot(), `serve\.[^.]+\.prepare_calls`); n == 0 {
		t.Error("a region pass characterized nothing; the set-up check above proves nothing")
	}
}

func TestQuietPassesPerInput(t *testing.T) {
	p := &phase{}
	for rep := 0; rep < 8; rep++ {
		for in := 0; in < 2; in++ {
			work := float64(rep + 1)
			if in == 1 {
				work *= 10
			}
			p.passes = append(p.passes, passStats{input: in, ops: 1, work: work, lat: []float64{work}})
		}
	}
	q := p.quiet()
	if len(q) != 4 {
		t.Fatalf("quiet kept %d passes, want 2 per input", len(q))
	}
	for _, ps := range q {
		if limit := map[int]float64{0: 2, 1: 20}[ps.input]; ps.work > limit {
			t.Errorf("quiet kept input %d pass of %v, not among its fastest quarter", ps.input, ps.work)
		}
	}
	opsPerS, _, lat := p.quietStats()
	if want := 4 / (1 + 2 + 10 + 20.0); opsPerS != want || len(lat) != 4 {
		t.Errorf("quietStats = %v ops/s from %d calls, want %v from 4", opsPerS, len(lat), want)
	}
}

// TestSelfTimes: self times partition the root span's duration among the
// layers, and every span's duration is kept even past the span-file cap.
func TestSelfTimes(t *testing.T) {
	tr := newTracer("test")
	for i := 0; i < 3; i++ {
		tr.begin("pass")
		tr.begin("solver.solve")
		tr.begin("schedule.evaluate")
		tr.end()
		tr.end()
		tr.begin("sim.run")
		tr.end()
		tr.end()
	}
	var self time.Duration
	for _, ms := range tr.selfTimes() {
		if ms < 0 {
			t.Fatalf("negative self time in %v", tr.selfTimes())
		}
		self += time.Duration(ms * float64(time.Millisecond))
	}
	if pass := tr.total("pass"); (self - pass).Abs() > time.Microsecond {
		t.Errorf("self times sum to %v, root spans last %v", self, pass)
	}
	if n := len(tr.durations("sim.run", time.Microsecond)); n != 3 {
		t.Errorf("%d sim.run durations, want 3", n)
	}
	if got := tr.spans[1].Parent; got != 0 {
		t.Errorf("solver.solve parent = %d, want 0", got)
	}
	for i := 0; i < maxSpans; i++ {
		tr.begin("fleet.offer")
		tr.end()
	}
	if len(tr.spans) != maxSpans || len(tr.durations("fleet.offer", time.Microsecond)) != maxSpans {
		t.Errorf("kept %d spans and %d durations, want %d and %d", len(tr.spans), len(tr.durations("fleet.offer", time.Microsecond)), maxSpans, maxSpans)
	}
}

// runLines runs one workload briefly and returns its output lines and
// parsed result.
func runLines(t *testing.T, o options) ([]string, result) {
	t.Helper()
	outDir = t.TempDir()
	var buf bytes.Buffer
	if err := run(o, &buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	return lines, res
}

// TestEndToEndRun checks a short untraced plan run: every end-to-end
// metric present and non-zero, no two metrics with the same value (one
// quantity under two names), no failed op, and the environment stamped.
func TestEndToEndRun(t *testing.T) {
	lines, res := runLines(t, options{workload: "plan", seed: 3, seconds: 0.1})
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(endToEnd) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(endToEnd))
	}
	seen := map[float64]string{}
	for name, raw := range res.Metrics {
		v := raw.(map[string]any)["value"].(float64)
		if v == 0 {
			t.Errorf("%s is 0", name)
		}
		if other, ok := seen[v]; ok {
			t.Errorf("%s and %s both read %v", name, other, v)
		}
		seen[v] = name
	}
	if !strings.Contains(lines[0], `"gomaxprocs":`) || !strings.Contains(lines[0], `"seed":3`) {
		t.Errorf("environment line %s", lines[0])
	}
}

// TestTracedRun checks a short traced run of the region workload, which
// drives every layer: all per-layer metrics present, the overhead
// reported, and the spans written.
func TestTracedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("region traced run takes several seconds")
	}
	lines, res := runLines(t, options{workload: "region", seed: 2, seconds: 0.1, trace: 1})
	if !res.Correct || res.Failed != 0 {
		t.Errorf("correct=%v failed=%d", res.Correct, res.Failed)
	}
	if len(res.Metrics) != len(perLayer) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(perLayer))
	}
	for _, name := range []string{"fleet.offer_us_p50", "control.advance_ms_p50", "shard.ms_per_round", "serve.step_us_p50", "serve.offer_us_p50", "serve.lookup_us_p50", "solver.solve_ms_p50", "bench.trace_overhead_pct"} {
		if v := res.Metrics[name].(map[string]any)["value"].(float64); v == 0 {
			t.Errorf("%s is 0 on region", name)
		}
	}
	var spans struct {
		Spans string `json:"spans"`
	}
	for _, l := range lines {
		if strings.HasPrefix(l, `{"self_ms"`) {
			if err := json.Unmarshal([]byte(l), &spans); err != nil {
				t.Fatal(err)
			}
		}
	}
	if fi, err := os.Stat(spans.Spans); err != nil || fi.Size() == 0 {
		t.Errorf("span file %q: %v", spans.Spans, err)
	}
}
