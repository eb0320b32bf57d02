// Command perfbench is haxconn's benchmark. It runs one workload — plan or
// region — for a fixed host time, checks the program's outputs, and prints
// every metric by name with its unit as the last line of standard output:
//
//	bash perfbench/run.sh --workload region --seed 3 --seconds 50 --trace 0
//
// With --trace 0 it prints the end-to-end metrics of an untraced run. With
// --trace 1 it alternates untraced and traced cycles (spans recorded around
// the calls into each layer's public functions) and prints the per-layer
// metrics; the spans are written to .bench_build/spans at exit. See
// README.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// outDir holds everything a run writes, relative to the working directory
// (the repository root).
var outDir = ".bench_build"

// A run builds its inputs at least minSetups times and until setupFor has
// passed (at most maxSetups times); setup_s is the median.
const (
	minSetups = 9
	maxSetups = 1000
	setupFor  = 500 * time.Millisecond
)

// workload is one benchmark input set driven through the program.
type workload interface {
	// setup generates the inputs from the seed and constructs the objects
	// a pass starts from. It characterizes nothing: users pay
	// characterization on every cold start, so it stays in the passes.
	setup(seed int64) error
	// pass performs one unit of measured work — one plan, or one cold
	// region run over a whole trace — and appends the host latency of
	// each blocking call to lat. A non-nil tracer selects the traced
	// variant, which records spans and may add probe calls under a
	// separate "probe" root span.
	pass(tr *tracer, lat *[]float64) (passResult, error)
	// cycle is the number of passes that cover every input once. A phase
	// runs whole cycles, so each cycle is the same work.
	cycle() int
	// finish runs the once-per-run checks and fills the sim_* metrics; it
	// returns the ops that failed those checks.
	finish(vs *values) (failed int, err error)
	// layers fills the per-layer metrics from a traced phase.
	layers(vs *values, tr *tracer) error
}

var workloads = map[string]func() workload{
	"plan":   func() workload { return &planWorkload{} },
	"region": func() workload { return &regionWorkload{} },
}

// passResult is what one pass did.
type passResult struct {
	ops    int // ops completed
	failed int // ops that failed their output checks
	// work is the host time of the workload's own calls, without checks
	// and probes: the part tracing may slow down.
	work time.Duration
}

// quietShare is the part of each input's passes a run's host metrics come
// from: the fastest. Other tenants of a shared host slow the memory
// system for seconds at a time — by up to half on these workloads — while
// a pass over the same input is the same work each time, so its fastest
// repetitions are the ones that ran undisturbed.
const quietShare = 0.25

// passStats is one pass's host measurements.
type passStats struct {
	input int       // index of the input within the cycle
	ops   int       // ops completed
	work  float64   // seconds of workload calls
	lat   []float64 // ms per blocking call
}

// phase accumulates the passes of one kind, untraced or traced.
type phase struct {
	ops, failed int
	passes      []passStats
	alloc       uint64  // bytes allocated
	gcCPU, cpu  float64 // GC and total CPU seconds
	heapMiB     float64 // live heap after the first cycle
}

// quiet returns each input's fastest quietShare of passes.
func (p *phase) quiet() []passStats {
	byInput := map[int][]passStats{}
	for _, ps := range p.passes {
		byInput[ps.input] = append(byInput[ps.input], ps)
	}
	var out []passStats
	for i := 0; i < len(byInput); i++ {
		ps := byInput[i]
		sort.SliceStable(ps, func(a, b int) bool { return ps[a].work < ps[b].work })
		out = append(out, ps[:int(math.Ceil(quietShare*float64(len(ps))))]...)
	}
	return out
}

// quietStats folds the quiet passes into throughput, mean work per pass
// and the pooled call latencies.
func (p *phase) quietStats() (opsPerS, workPerPass float64, lat []float64) {
	var ops int
	var work float64
	q := p.quiet()
	for _, ps := range q {
		ops += ps.ops
		work += ps.work
		lat = append(lat, ps.lat...)
	}
	return float64(ops) / work, work / float64(len(q)), lat
}

// measure runs whole cycles of passes until d has elapsed and the quiet
// untraced passes hold need blocking calls. With a tracer, cycles
// alternate untraced and traced, starting untraced, so both kinds see the
// same process state; without one every cycle is untraced.
func measure(w workload, d time.Duration, tr *tracer, need int) (un, tp *phase, err error) {
	un, tp = &phase{}, &phase{}
	runtime.GC()
	t0 := time.Now()
	for k := 0; ; k++ {
		if len(un.passes) > 0 && (tr == nil || len(tp.passes) > 0) && time.Since(t0) >= d {
			if _, _, lat := un.quietStats(); len(lat) >= need {
				return un, tp, nil
			}
		}
		if tr != nil && k%2 == 1 {
			err = tp.cycle(w, tr)
		} else {
			err = un.cycle(w, nil)
		}
		if err != nil {
			return nil, nil, err
		}
		if k == 0 {
			un.heapMiB = heapMiB()
		}
	}
}

// cycle runs one pass over every input into the phase.
func (p *phase) cycle(w workload, tr *tracer) error {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	gc0 := gcSample()
	for i := 0; i < w.cycle(); i++ {
		ps := passStats{input: i}
		r, err := w.pass(tr, &ps.lat)
		if err != nil {
			return err
		}
		ps.ops, ps.work = r.ops, r.work.Seconds()
		p.passes = append(p.passes, ps)
		p.ops += r.ops
		p.failed += r.failed
	}
	gc1 := gcSample()
	runtime.ReadMemStats(&m1)
	p.alloc += m1.TotalAlloc - m0.TotalAlloc
	p.gcCPU += gc1[0] - gc0[0]
	p.cpu += gc1[1] - gc0[1]
	return nil
}

// gcSample reads the process's cumulative GC CPU time and total CPU time.
func gcSample() [2]float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return [2]float64{s[0].Value.Float64(), s[1].Value.Float64()}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// heapMiB is the live heap after a forced collection. It is read once,
// after the first cycle, before the run's own samples pile up: the inputs
// plus what the program keeps alive between passes.
func heapMiB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool           `json:"correct"`
	Attempted int            `json:"attempted"`
	Failed    int            `json:"failed"`
	Metrics   map[string]any `json:"metrics"`
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
}

// maxProcs caps GOMAXPROCS. Load comes from this one process; on a 2-core
// VM under noisy neighbours, two procs gave passes within a few percent of
// each other where one proc wandered by a quarter, because the collector
// and the runtime's own goroutines no longer share the measured thread.
const maxProcs = 2

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: plan or region")
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 50, "host seconds to measure")
	flag.IntVar(&o.trace, "trace", 0, "1 runs traced and prints the per-layer metrics")
	flag.Parse()
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run measures one workload and writes the result lines to out.
func run(o options, out io.Writer) error {
	mk, ok := workloads[o.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (plan or region)", o.workload)
	}
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", o.trace)
	}
	if o.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	runtime.GOMAXPROCS(min(maxProcs, runtime.NumCPU()))
	env := map[string]any{
		"workload": o.workload, "seed": o.seed, "seconds": o.seconds, "trace": o.trace,
		"gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(), "go": runtime.Version(),
	}
	if err := printJSON(out, map[string]any{"env": env}); err != nil {
		return err
	}

	w := mk()
	vs := newValues()
	var setups []float64
	for start := time.Now(); len(setups) < maxSetups && (len(setups) < minSetups || time.Since(start) < setupFor); {
		t0 := time.Now()
		if err := w.setup(o.seed); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	vs.set("setup_s", median(setups))

	// An untraced run must hold enough calls for its call_ms percentiles.
	need := 0
	for _, m := range endToEnd {
		if o.trace == 0 && strings.HasPrefix(m.Name, "call_ms") {
			need = max(need, minSamples(m.Q))
		}
	}
	var tr *tracer
	if o.trace == 1 {
		tr = newTracer(fmt.Sprintf("%s-seed%d-pid%d", o.workload, o.seed, os.Getpid()))
	}
	un, tp, err := measure(w, time.Duration(o.seconds*float64(time.Second)), tr, need)
	if err != nil {
		return err
	}
	opsPerS, untracedWork, quietLat := un.quietStats()
	vs.set("ops_per_s", opsPerS)
	vs.pct("call_ms_p50", quietLat, 1)
	vs.pct("call_ms_p90", quietLat, 1)
	vs.set("alloc_kb_per_op", float64(un.alloc)/1024/float64(un.ops))
	vs.set("heap_mb", un.heapMiB)
	vs.set("go.gc_cpu_pct", 100*un.gcCPU/un.cpu)
	attempted, failed := un.ops+tp.ops, un.failed+tp.failed
	finFailed, err := w.finish(vs)
	if err != nil {
		return err
	}
	failed += finFailed
	simFailed, err := checkSimStable(o, vs)
	if err != nil {
		return err
	}
	failed += simFailed

	list := endToEnd
	if tr != nil {
		list = perLayer
		if err := w.layers(vs, tr); err != nil {
			return err
		}
		// Interleaved cycles are the same inputs in the same process
		// state; compare their quiet passes.
		_, tracedWork, _ := tp.quietStats()
		vs.set("bench.trace_overhead_pct", 100*(tracedWork/untracedWork-1))
		path, err := tr.write(filepath.Join(outDir, "spans"))
		if err != nil {
			return err
		}
		if err := printJSON(out, map[string]any{"spans": path, "self_ms": tr.selfTimes()}); err != nil {
			return err
		}
	}
	metrics, err := vs.render(list, o.trace == 0)
	if err != nil {
		return err
	}
	samples := map[string]int{}
	for _, m := range list {
		if m.Q > 0 {
			samples[m.Name] = vs.samples[m.Name]
		}
	}
	if err := printJSON(out, map[string]any{"samples": samples}); err != nil {
		return err
	}
	return printJSON(out, result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metrics})
}

// checkSimStable compares this run's sim_* values with those an earlier
// run of the same workload and seed stored in the checkout, and stores
// them on the first run. Virtual-time results must be byte-identical run
// to run, so any difference fails the run's ops.
func checkSimStable(o options, vs *values) (int, error) {
	sim := map[string]float64{}
	for _, m := range endToEnd {
		if strings.HasPrefix(m.Name, "sim_") {
			sim[m.Name] = vs.v[m.Name]
		}
	}
	cur, err := json.Marshal(sim)
	if err != nil {
		return 0, err
	}
	dir := filepath.Join(outDir, "sim")
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
	prev, err := os.ReadFile(path)
	if err == nil {
		if !bytes.Equal(prev, cur) {
			fmt.Fprintf(os.Stderr, "perfbench: sim metrics changed for seed %d: was %s, now %s\n", o.seed, prev, cur)
			return 1, nil
		}
		return 0, nil
	}
	if !os.IsNotExist(err) {
		return 0, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	return 0, os.WriteFile(path, cur, 0o644)
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func printJSON(out io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(b))
	return err
}
