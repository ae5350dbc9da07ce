// Package hmcsim reproduces "Demystifying the Characteristics of
// 3D-Stacked Memories: A Case Study for Hybrid Memory Cube"
// (Hadidi et al., IISWC 2017) as a pure-Go simulation stack.
//
// The paper characterizes a real 4 GB HMC 1.1 on an AC-510 FPGA
// accelerator: bandwidth across access patterns, latency
// deconstruction of the packet-switched path, and — for the first
// time on real 3D-stacked hardware — the coupling between bandwidth,
// temperature and power, including thermal failures of write-heavy
// workloads. This module replaces the hardware with calibrated
// models and regenerates every table and figure of the evaluation.
//
// Layout:
//
//   - internal/sim: the discrete-event kernel — engine with a typed
//     Handler fast path (zero allocations per scheduled event),
//     servers, queues, pooled completion delivery, RNG
//   - internal/runner: the experiment-execution layer — a
//     context-cancellable worker pool, deterministic per-cell
//     seeding, progress callbacks, and text/CSV/JSON result sinks
//   - internal/core: public facade — Characterizer, Measure and the
//     paper's design insights
//   - internal/hmc: the device model (geometry, packet protocol,
//     address mapping, links, quadrants, vaults, banks, the
//     thermal-shutdown latch)
//   - internal/fpga: the host-side HMC controller pipeline (Fig. 14)
//   - internal/gups: the GUPS traffic generator (full-scale,
//     small-scale, stream)
//   - internal/thermal, internal/power, internal/cooling: the RC
//     thermal network with the paper's ~85/75 °C read/write failure
//     thresholds, power model and Table III cooling rig
//   - internal/experiments: the experiment registry, one runner per
//     table/figure
//   - cmd/figures, cmd/hmcsim, cmd/gups: command-line tools
//   - examples/: runnable walkthroughs (quickstart, streaming,
//     pimthermal, addrmap)
//
// The benchmarks in bench_test.go regenerate each table and figure
// under `go test -bench`. See README.md for build/run instructions
// and the kernel/runner architecture, and EXPERIMENTS.md for the
// experiment registry.
package hmcsim
