package cliutil

import (
	"math"
	"testing"

	"haxconn/internal/serve"
)

// fuzzDurationMs is the trace horizon FuzzParseTenants generates over:
// short, so an accepted spec set stays cheap to materialize.
const fuzzDurationMs = 20

// fuzzMaxRequests bounds the traces the fuzz body materializes. Spec sets
// expecting more (but not over serve.MaxTraceRequests, which Generate
// rejects before drawing anything) are legitimate yet too costly to build
// once per fuzz input, so they are skipped.
const fuzzMaxRequests = 100_000

// FuzzParseTenants guards the serving commands' -tenants flag end to end:
// any string ParseTenants accepts must reach serve.Generate and either be
// rejected or yield a well-formed trace — never hang, panic, or carry a
// NaN or infinite field into the serving stack.
//
// The seed corpus (f.Add below plus testdata/fuzz/FuzzParseTenants)
// covers the grammar and the numeric edge cases: NaN and infinite rates,
// SLOs and periods, a 1e308 rate, empty fields, missing and extra colons,
// empty and duplicate tenants.
func FuzzParseTenants(f *testing.F) {
	for _, seed := range []struct {
		spec     string
		periodic bool
	}{
		{"alice:VGG19:140:10,bob:ResNet152:25:12", false},
		{"cam:VGG19:8:10", true},
		{"a:VGG19:NaN:10", false},
		{"a:VGG19:10:NaN", false},
		{"a:VGG19:Inf:10", false},
		{"a:VGG19:10:+Inf", true},
		{"a:VGG19:1e308:10", false},
		{"a:VGG19:1e-300:10", true},
		{"a:VGG19:-5:10", false},
		{"::10:10", false},
		{"a:VGG19::", false},
		{"a:VGG19:10:10:extra", false},
		{"a:VGG19:10", false},
		{"", false},
		{",", false},
		{"a:VGG19:10:10,a:VGG19:10:10", false},
		{"TOTAL:VGG19:10:10", false},
	} {
		f.Add(seed.spec, seed.periodic)
	}
	f.Fuzz(func(t *testing.T, spec string, periodic bool) {
		arrivals := "poisson"
		if periodic {
			arrivals = "periodic"
		}
		specs, err := ParseTenants(spec, arrivals)
		if err != nil {
			return // rejected cleanly
		}
		if n := expectedRequests(specs); n > fuzzMaxRequests && n <= serve.MaxTraceRequests {
			t.Skipf("accepted spec set expects %g requests; too costly to fuzz", n)
		}
		tr, err := serve.Generate(specs, fuzzDurationMs, 1)
		if err != nil {
			return
		}
		if len(tr) > serve.MaxTraceRequests {
			t.Fatalf("trace of %d requests exceeds the cap %d", len(tr), serve.MaxTraceRequests)
		}
		tenants := map[string]bool{}
		for _, sp := range specs {
			tenants[sp.Name] = true
		}
		prev := 0.0
		for i, r := range tr {
			if r.ID != i {
				t.Fatalf("request %d has ID %d", i, r.ID)
			}
			if !tenants[r.Tenant] {
				t.Fatalf("request %d from unknown tenant %q", i, r.Tenant)
			}
			if math.IsNaN(r.ArrivalMs) || r.ArrivalMs < prev || r.ArrivalMs >= fuzzDurationMs {
				t.Fatalf("request %d arrives at %g (previous %g, horizon %d)", i, r.ArrivalMs, prev, fuzzDurationMs)
			}
			if math.IsNaN(r.SLOMs) || math.IsInf(r.SLOMs, 0) || r.SLOMs < 0 {
				t.Fatalf("request %d carries SLO %g", i, r.SLOMs)
			}
			prev = r.ArrivalMs
		}
	})
}

// expectedRequests estimates the trace size Generate would draw over
// fuzzDurationMs (NaN when a field is NaN).
func expectedRequests(specs []serve.TenantSpec) float64 {
	n := 0.0
	for _, sp := range specs {
		if sp.RateRPS > 0 {
			n += sp.RateRPS * fuzzDurationMs / 1000
		} else if sp.PeriodMs > 0 {
			n += fuzzDurationMs / sp.PeriodMs
		}
	}
	return n
}
