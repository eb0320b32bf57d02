package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// maxSpans bounds the spans a run keeps for its span file; a region run
// makes millions. Durations and self times cover every span.
const maxSpans = 100_000

// span is one timed call into a layer, recorded from the benchmark's own
// code around the program's public functions. Times are nanoseconds since
// the tracer started; Parent is the index of the enclosing span in the
// span file, or -1.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Run    string `json:"run"`
}

// open is a span that has begun and not ended.
type open struct {
	name   string
	start  time.Duration
	child  time.Duration // time covered by its ended child spans
	record int           // index in spans, or -1 past maxSpans
}

// tracer keeps spans in memory; they are written out once, at exit. A nil
// *tracer records nothing, so untraced code paths pass nil.
type tracer struct {
	t0    time.Time
	run   string
	spans []span
	stack []open
	durs  map[string][]float32 // nanoseconds of every ended span, by name
	self  map[string]time.Duration
}

func newTracer(run string) *tracer {
	return &tracer{t0: time.Now(), run: run, durs: map[string][]float32{}, self: map[string]time.Duration{}}
}

// begin opens a span nested in the innermost open one.
func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	o := open{name: name, start: time.Since(t.t0), record: -1}
	if len(t.spans) < maxSpans {
		parent := -1
		if n := len(t.stack); n > 0 {
			parent = t.stack[n-1].record
		}
		t.spans = append(t.spans, span{Name: name, Start: int64(o.start), Parent: parent, Run: t.run})
		o.record = len(t.spans) - 1
	}
	t.stack = append(t.stack, o)
}

// end closes the innermost open span and attributes its self time — its
// duration minus the part its child spans cover — to its layer, the span
// name's first dot-separated part.
func (t *tracer) end() {
	if t == nil {
		return
	}
	o := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	now := time.Since(t.t0)
	d := now - o.start
	if o.record >= 0 {
		t.spans[o.record].End = int64(now)
	}
	t.durs[o.name] = append(t.durs[o.name], float32(d))
	layer, _, _ := strings.Cut(o.name, ".")
	t.self[layer] += d - o.child
	if n := len(t.stack); n > 0 {
		t.stack[n-1].child += d
	}
}

// durations returns the durations of every span with the given name, in
// the unit scale (for example time.Millisecond).
func (t *tracer) durations(name string, unit time.Duration) []float64 {
	ds := t.durs[name]
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

// total sums the durations of the named spans.
func (t *tracer) total(name string) time.Duration {
	var d float64
	for _, x := range t.durs[name] {
		d += float64(x)
	}
	return time.Duration(d)
}

// selfTimes returns each layer's self time in milliseconds.
func (t *tracer) selfTimes() map[string]float64 {
	out := map[string]float64{}
	for layer, d := range t.self {
		out[layer] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// write stores the kept spans as JSON lines under dir, one file per run.
func (t *tracer) write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, t.run+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
