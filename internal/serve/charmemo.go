// CharMemo: the platform-scoped characterization memo. Characterization
// is deterministic in (platform, group cap, networks) and the resulting
// Problem/Profile are never mutated after construction, so every cache
// and runtime of a plane, fleet or standalone device reads one memo:
// each distinct mix's contention-model tables and each network's
// estimator profile (standalone service time, memory demand) are
// computed once per memo, not once per device or shard — the offline,
// once-per-(platform, network) characterization of the paper's
// Sec. 3.2–3.3.
package serve

import (
	"fmt"
	"sync"

	"haxconn/internal/baselines"
	"haxconn/internal/core"
	"haxconn/internal/schedule"
)

// charTables is one memoized mix characterization, or its failure.
// Problem and Profile are shared read-only between every adopting entry;
// the naive schedule is cloned per entry (entries may seed solvers with
// it).
type charTables struct {
	prob  *schedule.Problem
	pr    *schedule.Profile
	naive *schedule.Schedule
	err   error
}

// netProfile is one network's estimator characterization: its standalone
// service time and memory demand on a platform, or the failure.
type netProfile struct {
	standaloneMs float64
	demandGBps   float64
	err          error
}

// memoCell computes one memoized value exactly once. Waiters for the same
// key block on the cell, not on the memo, so distinct keys characterize
// concurrently.
type memoCell[T any] struct {
	once sync.Once
	v    T
}

// CharMemo memoizes characterizations across caches: per-mix tables and
// per-network estimator profiles, failures included (a key that fails
// once returns the same error ever after). Safe for concurrent use; each
// distinct key runs core.Prepare exactly once no matter how many shards
// race to it, so PrepareCalls is deterministic. Purely an
// evaluation-sharing device: every value handed out is byte-identical to
// what a cache would have computed alone, so memoized runs produce
// identical summaries, metrics and traces.
type CharMemo struct {
	mu       sync.Mutex
	mixes    map[string]*memoCell[charTables]
	nets     map[string]*memoCell[netProfile]
	prepares int
}

// NewCharMemo builds an empty memo. Construction characterizes nothing;
// the memo fills lazily.
func NewCharMemo() *CharMemo {
	return &CharMemo{
		mixes: map[string]*memoCell[charTables]{},
		nets:  map[string]*memoCell[netProfile]{},
	}
}

// PrepareCalls reports how many core.Prepare characterizations the memo
// has run: one per distinct mix plus one per distinct network profile.
func (cm *CharMemo) PrepareCalls() int {
	cm.mu.Lock()
	defer cm.mu.Unlock()
	return cm.prepares
}

// cellFor returns the memo cell for id, creating it (and counting the
// Prepare it will run) on first sight.
func cellFor[T any](cm *CharMemo, m map[string]*memoCell[T], id string) *memoCell[T] {
	cm.mu.Lock()
	defer cm.mu.Unlock()
	cell, ok := m[id]
	if !ok {
		cell = &memoCell[T]{}
		m[id] = cell
		cm.prepares++
	}
	return cell
}

// characterize returns the tables for the cache's mix, computing and
// memoizing them on first sight. The memo key includes the platform and
// group cap on top of the cache key (which already carries the mix and
// objective), so heterogeneous fleets sharing one memo never cross wires.
func (cm *CharMemo) characterize(c *Cache, key string, canon []string) (*schedule.Problem, *schedule.Profile, *schedule.Schedule, error) {
	cell := cellFor(cm, cm.mixes, fmt.Sprintf("%s|%d|%s", c.cfg.Platform.Name, c.cfg.MaxGroups, key))
	cell.once.Do(func() {
		prob, pr, err := core.Prepare(c.request(canon))
		if err != nil {
			cell.v = charTables{err: err}
			return
		}
		cell.v = charTables{prob: prob, pr: pr, naive: baselines.GPUOnly(pr)}
	})
	t := cell.v
	if t.err != nil {
		return nil, nil, nil, t.err
	}
	return t.prob, t.pr, t.naive.Clone(), nil
}

// profile returns the network's estimator profile on the cache's
// platform and group cap, characterizing it on first sight.
func (cm *CharMemo) profile(c *Cache, network string) netProfile {
	cell := cellFor(cm, cm.nets, fmt.Sprintf("%s|%d|%s", c.cfg.Platform.Name, c.cfg.MaxGroups, network))
	cell.once.Do(func() { cell.v = characterizeNetwork(c, network) })
	return cell.v
}

// characterizeNetwork runs one single-network core.Prepare and derives
// the estimators: the standalone service time is the minimum per-group
// latency over the allowed accelerators, the demand the time-weighted
// mean of per-group demand along that fastest per-group path.
func characterizeNetwork(c *Cache, network string) netProfile {
	_, pr, err := core.Prepare(core.Request{
		Platform:  c.cfg.Platform,
		Networks:  []string{network},
		MaxGroups: c.cfg.MaxGroups,
	})
	if err != nil {
		return netProfile{err: err}
	}
	var weighted, total float64
	for g := range pr.Groups[0] {
		best := pr.Allowed[0]
		for _, a := range pr.Allowed {
			if pr.Exec[0][g][a].LatencyMs < pr.Exec[0][g][best].LatencyMs {
				best = a
			}
		}
		e := pr.Exec[0][g][best]
		weighted += e.LatencyMs * e.DemandGBps
		total += e.LatencyMs
	}
	d := 0.0
	if total > 0 {
		d = weighted / total
	}
	return netProfile{standaloneMs: schedule.MinBaseLatencyMs(pr, 0, 1), demandGBps: d}
}

// profile is the cache's unlocked front for the memo's network profiles:
// the hot placement and dispatch paths (Fleet.views asks every device on
// every arrival) read a plain map, and only a front miss takes the
// memo's lock — once per network per cache.
func (c *Cache) profile(network string) netProfile {
	p, ok := c.profiles[network]
	if !ok {
		p = c.cfg.Chars.profile(c, network)
		c.profiles[network] = p
	}
	return p
}
