// Load generator: deterministic multi-tenant request traces with Poisson
// or periodic arrivals. The same seed always yields the same trace, so
// serving experiments (and the naive-vs-aware comparison, which must serve
// identical traffic) are reproducible.
package serve

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"

	"haxconn/internal/nn"
)

// TenantSpec describes one tenant's traffic.
type TenantSpec struct {
	// Name identifies the tenant in metrics.
	Name string
	// Network is the zoo network every request of this tenant runs.
	Network string
	// RateRPS generates Poisson arrivals at this mean rate (requests per
	// second of virtual time). Exclusive with PeriodMs.
	RateRPS float64
	// PeriodMs generates periodic arrivals at this fixed interval.
	// Exclusive with RateRPS.
	PeriodMs float64
	// PhaseMs offsets the tenant's first arrival.
	PhaseMs float64
	// SLOMs is the per-request latency objective stamped on every request.
	SLOMs float64
}

// MaxTraceRequests caps the expected request count of one Generate call
// (the sum over tenants of rate x duration, or duration / period).
// Generate materializes the whole trace, so a spec like a 1e308 req/s
// rate must fail fast instead of growing until the process is killed.
const MaxTraceRequests = 10_000_000

// finite reports whether v is neither NaN nor infinite.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Generate builds a trace covering [0, durationMs) from the tenant specs.
// Arrivals are deterministic in (specs, durationMs, seed): each tenant
// draws from its own seeded stream, so adding a tenant does not perturb
// the others' arrivals. Every numeric field must be finite, the set one of
// RateRPS/PeriodMs positive, and the expected request count at most
// MaxTraceRequests.
func Generate(specs []TenantSpec, durationMs float64, seed int64) (Trace, error) {
	if err := validateSpecs(specs, durationMs); err != nil {
		return nil, err
	}
	var tr Trace
	for _, sp := range specs {
		// Per-tenant sub-stream keyed by tenant name, so reordering or
		// inserting tenants never perturbs another tenant's arrivals.
		h := fnv.New64a()
		h.Write([]byte(sp.Name))
		rng := rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
		t := sp.PhaseMs
		if sp.RateRPS > 0 {
			t += rng.ExpFloat64() * 1000 / sp.RateRPS
		}
		for t < durationMs {
			tr = append(tr, Request{
				Tenant:    sp.Name,
				Network:   sp.Network,
				ArrivalMs: t,
				SLOMs:     sp.SLOMs,
			})
			if sp.RateRPS > 0 {
				t += rng.ExpFloat64() * 1000 / sp.RateRPS
			} else {
				t += sp.PeriodMs
			}
		}
	}
	sort.SliceStable(tr, func(i, j int) bool { return tr[i].ArrivalMs < tr[j].ArrivalMs })
	for i := range tr {
		tr[i].ID = i
	}
	if len(tr) == 0 {
		return nil, fmt.Errorf("serve: specs produced no arrivals in %g ms", durationMs)
	}
	return tr, nil
}

// validateSpecs checks every spec before Generate draws a single arrival,
// so a spec set over the request cap is rejected without materializing
// any of it.
func validateSpecs(specs []TenantSpec, durationMs float64) error {
	if len(specs) == 0 {
		return fmt.Errorf("serve: no tenant specs")
	}
	if !(durationMs > 0) || !finite(durationMs) {
		return fmt.Errorf("serve: duration %g is not positive and finite", durationMs)
	}
	names := map[string]bool{}
	expected := 0.0
	for i, sp := range specs {
		if sp.Name == "" {
			return fmt.Errorf("serve: tenant %d has no name", i)
		}
		if sp.Name == totalName {
			return fmt.Errorf("serve: tenant name %q is reserved for the aggregate row", totalName)
		}
		if names[sp.Name] {
			return fmt.Errorf("serve: duplicate tenant %q", sp.Name)
		}
		names[sp.Name] = true
		if _, err := nn.ByName(sp.Network); err != nil {
			return fmt.Errorf("serve: tenant %q: %w", sp.Name, err)
		}
		if !finite(sp.RateRPS) || !finite(sp.PeriodMs) || sp.RateRPS < 0 || sp.PeriodMs < 0 {
			return fmt.Errorf("serve: tenant %q has a non-finite or negative rate or period", sp.Name)
		}
		if (sp.RateRPS > 0) == (sp.PeriodMs > 0) {
			return fmt.Errorf("serve: tenant %q must set exactly one of RateRPS and PeriodMs", sp.Name)
		}
		if !finite(sp.PhaseMs) || !finite(sp.SLOMs) || sp.PhaseMs < 0 || sp.SLOMs < 0 {
			return fmt.Errorf("serve: tenant %q has a non-finite or negative phase or SLO", sp.Name)
		}
		if span := durationMs - sp.PhaseMs; span > 0 {
			if sp.RateRPS > 0 {
				expected += sp.RateRPS * span / 1000
			} else {
				expected += span / sp.PeriodMs
			}
		}
		if expected > MaxTraceRequests {
			return fmt.Errorf("serve: specs expect more than %d requests in %g ms (tenant %q)", MaxTraceRequests, durationMs, sp.Name)
		}
	}
	return nil
}
