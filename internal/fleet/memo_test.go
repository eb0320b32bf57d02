package fleet

import (
	"strings"
	"testing"

	"haxconn/internal/obs"
	"haxconn/internal/serve"
)

// TestPrivateCachesShareMemo: private schedule caches keep their own
// entries and counters, yet still read one characterization memo — the
// fleet's — so each network's estimator profile and each mix's tables are
// characterized once for the whole pool, not once per device. The fleet
// that built the memo exports its count once; no device exports its own.
func TestPrivateCachesShareMemo(t *testing.T) {
	tr := defaultTrace(t)
	tracer := obs.NewTracer()
	f, err := New(Config{
		Devices:         []DeviceSpec{{Platform: "Orin", Count: 3}},
		Placement:       LeastLoaded(),
		SolverTimeScale: 50,
		PrivateCaches:   true,
		Tracer:          tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Serve(tr); err != nil {
		t.Fatal(err)
	}
	nets := map[string]bool{}
	for _, q := range tr {
		nets[q.Network] = true
	}
	mixes := map[string]bool{}
	missesPerMix := map[string]int{}
	for _, e := range tracer.Events() {
		switch e.Kind {
		case obs.KindCacheMiss:
			missesPerMix[e.Detail]++
			mixes[e.Detail] = true
		case obs.KindCacheHit, obs.KindCacheProbe, obs.KindCacheSolve:
			mixes[e.Detail] = true
		}
	}
	repeated := false
	for _, n := range missesPerMix {
		repeated = repeated || n > 1
	}
	if !repeated {
		t.Fatal("no mix missed on more than one private cache; the test shows no sharing")
	}
	reg := obs.NewRegistry()
	f.FillMetrics(reg)
	var got float64
	for _, m := range reg.Snapshot() {
		switch {
		case m.Name == MemoPrepareCallsMetric:
			got = m.Value
		case strings.HasSuffix(m.Name, ".prepare_calls"):
			t.Errorf("%s = %g exported besides the fleet's memo count", m.Name, m.Value)
		}
	}
	if want := len(nets) + len(mixes); got != float64(want) {
		t.Errorf("memo ran %g prepares across 3 private caches, want %d networks + %d mixes", got, len(nets), len(mixes))
	}
}

// TestHandedMemoIsNotExported: a fleet reading a memo it was handed (the
// sharded plane's) leaves the count to the memo's owner.
func TestHandedMemoIsNotExported(t *testing.T) {
	memo := serve.NewCharMemo()
	f, err := New(Config{Devices: []DeviceSpec{{Platform: "Orin", Count: 2}}, CacheChars: memo})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Serve(defaultTrace(t)); err != nil {
		t.Fatal(err)
	}
	if memo.PrepareCalls() == 0 {
		t.Fatal("the fleet never read the memo it was handed")
	}
	reg := obs.NewRegistry()
	f.FillMetrics(reg)
	for _, m := range reg.Snapshot() {
		if strings.HasSuffix(m.Name, ".prepare_calls") {
			t.Errorf("fleet exported %s for a memo it does not own", m.Name)
		}
	}
}
