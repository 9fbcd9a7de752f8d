// The benchmark's four workloads, driven through the simulator's public API.
//
// A repetition (RunRep) replays a few independent draws. Each draw generates
// its inputs from its seeds, builds the system and submits the arrivals (the
// set-up phase), then runs the simulation (the run phase). Host time is
// measured from outside, around those public calls; nothing in src/ is
// instrumented. A traced repetition additionally attaches a forwarding
// PlatformObserver and per-instance TouchListeners, replays `cell` a second
// time at one thread, and reports the per-layer values the untraced runs do
// not pay for.
//
//   suite     single-node Table-1 suite replay, Desiccant mode, SF 30
//   pressure  the same replay at SF 15 on a 1 GiB node with 2 GiB of swap
//   cell      ShardedCluster replay of an AzureLike population with snapshots,
//             the shared fabric and node crashes, on up to nproc threads
//   chain     Fig. 1-style ChainStudy runs of all 20 Table-1 functions
//
// README.md in this directory says what each workload models and which
// layer it exercises.
#ifndef PERFBENCH_HARNESS_WORKLOADS_H_
#define PERFBENCH_HARNESS_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

enum class Workload : uint8_t { kSuite, kPressure, kCell, kChain };

const char* WorkloadName(Workload workload);
bool ParseWorkload(const std::string& name, Workload* out);

// Every simulation seed one draw of a workload uses, derived from a single
// seed, so the program only ever sees generated inputs. Draw k of a
// repetition uses DeriveSeeds(Rng::MixSeed(workload_seed, k)).
struct Seeds {
  uint64_t trace = 0;       // arrival streams
  uint64_t population = 0;  // synthetic population parameters (cell)
  uint64_t platform = 0;    // platform / per-node RNGs
  uint64_t study = 0;       // chain-study program seeds
  uint64_t faults = 0;      // fault-plan draws (cell node crashes)
};
Seeds DeriveSeeds(uint64_t seed);

// One timed call into a layer, relative to the start of the repetition.
struct Span {
  std::string name;
  double start_s = 0;
  double seconds = 0;
};

// Per-layer values by metric name, in a fixed order.
using LayerValues = std::vector<std::pair<std::string, double>>;

struct RepResult {
  // Host time of this repetition, seconds.
  double setup_s = 0;  // inputs generated, system built, arrivals submitted
  double run_s = 0;    // the simulation run phase
  double cpu_s = 0;    // process user + sys over set-up and run (all threads)
  // Simulated output, pooled over the draws (exact and deterministic for a
  // given seed).
  uint64_t fingerprint = 0;
  uint64_t completed = 0;  // requests (replays) or chain invocations completed
  double p99_ms = 0;       // request or chain-invocation latency p99
  uint64_t latency_samples = 0;
  double goodput_rps = 0;  // replays: clean completions per window second;
                           // chain: invocations per simulated second
  double offered_rps = 0;  // replays: window arrivals per window second
  double frozen_mib = 0;   // frozen USS at window end (chain: after reclaim),
                           // mean over draws
  uint64_t oom_kills = 0;
  // Output checks this repetition failed (empty = passed).
  std::vector<std::string> failures;
  // Traced repetitions only.
  LayerValues layers;
  std::vector<Span> spans;
};

// Runs one repetition: every draw of the workload, pooled. `threads` is the
// cell's worker count (ignored by the serial workloads). A traced
// repetition attaches the probes (probes.h) and keeps spans and per-layer
// values; every probe wraps or listens to a public interface, and none may
// change the simulation (the fingerprint checks enforce it). On `cell` it
// also replays each draw at one thread and compares the fingerprints.
RepResult RunRep(Workload workload, uint64_t seed, bool traced, size_t threads);

// Every per-layer metric name a traced repetition emits, in emission order.
std::vector<std::string> LayerMetricNames();

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_WORKLOADS_H_
