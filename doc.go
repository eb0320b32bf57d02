// Package haxconn is a from-scratch Go reproduction of "Shared
// Memory-contention-aware Concurrent DNN Execution for Diversely
// Heterogeneous SoCs" (Dagli & Belviranli, PPoPP 2024).
//
// The public pipeline lives in internal/core; the online serving runtime
// in internal/serve, whose pluggable mix-forming dispatch (fifo,
// demand-balance, slo-aware, contention-aware — the last scoring a beam
// of candidate batches with the analytic contention model) decides which
// networks co-run each round; internal/solver's parallel portfolio
// (solver.OptimizePortfolio, the -portfolio flag on every serving CLI)
// runs the branch & bound, SAT-enumeration and local-search engines
// concurrently with a shared incumbent bound exchanged at deterministic
// barrier rounds, merging their incumbent streams on the virtual node
// clock so schedule-cache upgrades stay byte-identical run to run;
// internal/fleet extends mix-awareness above
// the device boundary with the mix-aware placement policy;
// internal/shard scales the control plane itself — K shard controllers
// over a tenant/device partition, stepped concurrently between
// deterministic barrier rounds that gossip solved schedule-cache
// entries (one solver run per mix region-wide, via per-mix solve
// ownership) and load summaries for cross-shard tenant handoff, while
// one platform-scoped characterization memo (serve.CharMemo), built per
// run and handed to every shard's fleets and caches, profiles each
// network and mix once region-wide instead of once per device, beating
// one global controller on wall-clock req/sec at better SLO attainment
// on the region-scale demo while keeping merged summaries
// byte-identical; internal/obs
// adds deterministic observability — request-lifecycle tracing exported
// as Perfetto-loadable Chrome trace JSON, streaming-sketch percentiles,
// and a counter registry — threaded through serve, fleet and control
// without perturbing a single scheduling decision; internal/lint
// (cmd/detlint) machine-checks the determinism and virtual-clock
// invariants themselves as static analysis — no unsorted map walks in
// export paths, no wall clock or global randomness outside annotated
// sites, no goroutines outside the blessed barrier primitives; the
// benchmark suite in bench_test.go regenerates every table and figure
// of the paper's evaluation. See README.md for a package tour and
// quickstart.
package haxconn
