// Package obm is a from-scratch Go reproduction of "Balancing On-Chip
// Network Latency in Multi-Application Mapping for Chip-Multiprocessors"
// (Zhu, Chen, Yue, Pinkston, Pedram — IPDPS 2014).
//
// The paper formulates the On-chip latency Balanced Mapping (OBM)
// problem — assign the threads of multiple concurrently running
// applications to the tiles of a mesh CMP so that the maximum
// per-application average packet latency is minimized — proves it
// NP-complete, and proposes the O(N^3) sort-select-swap heuristic.
//
// The implementation lives under internal/ (see DESIGN.md for the full
// inventory): the analytic mesh latency model, the Hungarian assignment
// solver, the OBM/SAM core, all four mapping algorithms from the
// evaluation, a flit-level wormhole NoC simulator driven at each
// thread's request rates, a DSENT-style power model, the
// synthetic PARSEC-like workload generator, and an experiment harness
// that regenerates every table and figure of the paper (cmd/obmsim).
//
// Entry points:
//
//	cmd/obmsim    regenerate any table/figure: obmsim -exp table1
//	cmd/obmsimd   the same experiments as an HTTP/JSON job service
//	cmd/benchjson record go test -bench output as BENCH_*.json
//	examples/     runnable walkthroughs of the public surfaces
//	bench_test.go benchmark per table/figure plus ablations
package obm
