package shard

import (
	"bytes"
	"sort"
	"strings"
	"testing"

	"haxconn/internal/fleet"
	"haxconn/internal/obs"
	"haxconn/internal/serve"
)

// regionRun serves one region-demo trace on a K-shard plane with every
// observability sink attached and returns the summary, the metrics
// snapshot and the merged trace.
func regionRun(t *testing.T, k int, tr serve.Trace) (*Summary, []obs.Metric, *obs.Tracer) {
	t.Helper()
	tracer := obs.NewTracer()
	reg := obs.NewRegistry()
	p, err := New(Config{Control: DemoRegionControl(), Shards: k, Tracer: tracer, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := p.Serve(tr)
	if err != nil {
		t.Fatal(err)
	}
	return sum, reg.Snapshot(), tracer
}

func regionTrace(t *testing.T) serve.Trace {
	t.Helper()
	tr, err := DemoRegionTrace(3)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func metricValue(t *testing.T, snap []obs.Metric, name string) float64 {
	t.Helper()
	for _, m := range snap {
		if m.Name == name {
			return m.Value
		}
	}
	t.Fatalf("metric %q missing from the snapshot", name)
	return 0
}

// TestRegionMemoPreparesOnce: on a region pass the plane's one
// characterization memo runs exactly one core.Prepare per distinct
// network (the estimator profile every Orin's placement and admission
// read) and one per distinct mix (the tables behind every cache entry and
// scoring probe, whichever shard builds it first) — not one per device or
// per shard, and at K=1 exactly as at K=4. The distinct sets are
// recovered independently from the trace: the requests' networks, and
// the mix keys of every cache miss, hit, probe and solve event across the
// shards.
func TestRegionMemoPreparesOnce(t *testing.T) {
	tr := regionTrace(t)
	nets := map[string]bool{}
	for _, q := range tr {
		nets[q.Network] = true
	}
	for _, k := range []int{1, 4} {
		_, snap, tracer := regionRun(t, k, tr)
		mixes := map[string]bool{}
		for _, e := range tracer.Events() {
			switch e.Kind {
			case obs.KindCacheMiss, obs.KindCacheHit, obs.KindCacheProbe, obs.KindCacheSolve:
				mixes[e.Detail] = true
			}
		}
		if len(mixes) == 0 {
			t.Fatalf("K=%d: the region pass recorded no cache events", k)
		}
		got := metricValue(t, snap, fleet.MemoPrepareCallsMetric)
		if want := len(nets) + len(mixes); got != float64(want) {
			keys := make([]string, 0, len(mixes))
			for m := range mixes {
				keys = append(keys, m)
			}
			sort.Strings(keys)
			t.Errorf("K=%d: memo ran %g prepares, want %d networks + %d mixes %v", k, got, len(nets), len(mixes), keys)
		}
		// The count is exported once, by the plane that built the memo:
		// no shard's fleet or device exports its own.
		for _, m := range snap {
			if m.Name != fleet.MemoPrepareCallsMetric && strings.HasSuffix(m.Name, ".prepare_calls") {
				t.Errorf("K=%d: %s = %g exported besides the plane's memo count", k, m.Name, m.Value)
			}
		}
	}
}

// TestRegionMemoDeterminism: with all K shards racing into one memo, the
// K=1 and K=4 region summaries, metrics snapshots (the memo's prepare
// count included) and trace bytes are identical run to run.
func TestRegionMemoDeterminism(t *testing.T) {
	tr := regionTrace(t)
	for _, k := range []int{1, 4} {
		var first [3][]byte
		for run := 0; run < 2; run++ {
			sum, snap, tracer := regionRun(t, k, tr)
			var ev bytes.Buffer
			if err := tracer.WriteJSONL(&ev); err != nil {
				t.Fatal(err)
			}
			got := [3][]byte{mustJSON(t, sum), mustJSON(t, snap), ev.Bytes()}
			if run == 0 {
				first = got
				continue
			}
			for i, what := range []string{"summaries", "metrics snapshots", "traces"} {
				if !bytes.Equal(first[i], got[i]) {
					t.Errorf("K=%d: %s differ across identical region runs", k, what)
				}
			}
		}
	}
}
