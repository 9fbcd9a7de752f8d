#include "harness/workloads.h"

#include <sys/resource.h>

#include <array>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>

#include "harness/probes.h"
#include "src/base/rng.h"
#include "src/base/stats.h"
#include "src/core/desiccant_manager.h"
#include "src/faas/event_profile.h"
#include "src/faas/platform.h"
#include "src/faas/sharded_cluster.h"
#include "src/faas/single_study.h"
#include "src/trace/azure_trace.h"
#include "src/trace/population.h"
#include "src/workloads/function_spec.h"

namespace perfbench {

using namespace desiccant;

namespace {

// ---------------------------------------------------------------------------
// Workload shapes. See README.md for why each one exists.
//
// A repetition replays `draws` independent inputs (draw k uses the seeds
// DeriveSeeds(MixSeed(seed, k))) and pools their outputs. One input's host
// time and tail latency swing with its arrival pattern; pooling a few keeps
// the per-seed figures steady enough to gate on.

// Single-node replays of the coarsened Table-1 suite (the fig09 harness).
struct ReplayShape {
  MemoryMode mode;
  double scale_factor;
  double warmup_scale_factor;
  double warmup_s;
  double measure_s;
  uint64_t node_budget_mib;  // 0 = node pressure model off
  uint64_t swap_mib;
  int draws;
};

// The paper's headline experiment: Desiccant at SF 30 on 1.6 cores, 900 s window.
constexpr ReplayShape kSuiteShape{MemoryMode::kDesiccant, 30.0, 15.0, 60.0, 900.0, 0, 0, 4};
// Node memory pressure: the same replay at SF 15 on a 1 GiB node with 2 GiB
// of swap. Residency crosses the watermarks, so kswapd scans and swaps out
// and Desiccant's node-pressure trigger fires, but swap never fills.
constexpr ReplayShape kPressureShape{MemoryMode::kDesiccant, 15.0, 15.0, 60.0, 900.0,
                                     1024, 2048, 6};

// The sharded cell: an AzureLike population with affinity routing,
// Desiccant nodes, the three-tier REAP store plus the shared fabric, and a
// node-crash plan.
struct CellShape {
  size_t functions = 10000;
  size_t nodes = 32;
  size_t racks = 4;
  double scale_factor = 2.0;
  double warmup_s = 20.0;
  double measure_s = 60.0;
  double crash_mtbf_s = 120.0;
  int draws = 4;
};

// Fig. 1 single-function studies: every Table-1 function, full-size objects,
// vanilla / eager / Desiccant, this many chain invocations each.
constexpr int kChainSteps = 60;

constexpr double kMinGoodputShare = 0.95;

// ---------------------------------------------------------------------------
// Host-time helpers.

using Clock = std::chrono::steady_clock;

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

// Times calls from outside and, in traced repetitions, keeps one span each.
class Timer {
 public:
  Timer(std::vector<Span>* spans, std::string prefix)
      : spans_(spans), prefix_(std::move(prefix)), origin_(Clock::now()) {}

  template <typename F>
  double Time(const char* name, F&& call) {
    const auto start = Clock::now();
    call();
    const double seconds = std::chrono::duration<double>(Clock::now() - start).count();
    if (spans_ != nullptr) {
      spans_->push_back({prefix_ + name,
                         std::chrono::duration<double>(start - origin_).count(), seconds});
    }
    return seconds;
  }

 private:
  std::vector<Span>* spans_;
  std::string prefix_;
  Clock::time_point origin_;
};

// FNV-1a over 64-bit words: the benchmark's own output digest.
class Digest {
 public:
  void Mix(uint64_t v) {
    h_ ^= v;
    h_ *= 1099511628211ull;
  }
  void MixDouble(double d) {
    uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    Mix(bits);
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ull;
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// ---------------------------------------------------------------------------
// Per-layer totals. ToLayerValues emits every field on every workload, so a
// layer a workload does not exercise reads 0.

struct LayerTotals {
  double trace_generate_s = 0;
  uint64_t trace_arrivals = 0;
  double faas_build_s = 0;
  double faas_submit_s = 0;
  double faas_warmup_s = 0;
  double faas_measure_s = 0;
  PlatformMetrics window;  // model counts
  double core_callback_s = 0;
  uint64_t core_callbacks = 0;
  DesiccantStats desiccant;
  double runtime_step_s = 0;
  double runtime_reclaim_s = 0;
  double os_sample_s = 0;
  uint64_t touch_calls = 0;
  uint64_t touch_pages = 0;
  uint64_t young_gcs = 0;
  uint64_t full_gcs = 0;
  uint64_t allocated_bytes = 0;
  uint64_t minor_faults = 0;
  PressureStats pressure;
  RouterStats router;
  double engine_serial_s = 0;
  SnapshotStats snapshot;
  FabricStats fabric;
  // The event profile's per-kind counters, read once the traced draws end
  // (the counters are process-wide; the cell's serial replays come after).
  std::array<uint64_t, EventProfile::kKinds> event_count{};
  std::array<uint64_t, EventProfile::kKinds> event_ns{};

  void ReadEventProfile() {
    for (size_t k = 0; k < EventProfile::kKinds; ++k) {
      event_count[k] = EventProfile::KindCount(static_cast<EventKind>(k));
      event_ns[k] = EventProfile::KindNs(static_cast<EventKind>(k));
    }
  }

  void Add(const LayerTotals& d) {
    trace_generate_s += d.trace_generate_s;
    trace_arrivals += d.trace_arrivals;
    faas_build_s += d.faas_build_s;
    faas_submit_s += d.faas_submit_s;
    faas_warmup_s += d.faas_warmup_s;
    faas_measure_s += d.faas_measure_s;
    window.Accumulate(d.window);
    core_callback_s += d.core_callback_s;
    core_callbacks += d.core_callbacks;
    desiccant.reclaim_requests += d.desiccant.reclaim_requests;
    desiccant.bytes_released += d.desiccant.bytes_released;
    desiccant.reclaim_aborts += d.desiccant.reclaim_aborts;
    desiccant.node_pressure_activations += d.desiccant.node_pressure_activations;
    runtime_step_s += d.runtime_step_s;
    runtime_reclaim_s += d.runtime_reclaim_s;
    os_sample_s += d.os_sample_s;
    touch_calls += d.touch_calls;
    touch_pages += d.touch_pages;
    young_gcs += d.young_gcs;
    full_gcs += d.full_gcs;
    allocated_bytes += d.allocated_bytes;
    minor_faults += d.minor_faults;
    pressure.kswapd_runs += d.pressure.kswapd_runs;
    pressure.kswapd_pages += d.pressure.kswapd_pages;
    pressure.direct_reclaim_events += d.pressure.direct_reclaim_events;
    pressure.direct_reclaim_pages += d.pressure.direct_reclaim_pages;
    pressure.swap_out_pages += d.pressure.swap_out_pages;
    pressure.commit_failures += d.pressure.commit_failures;
    router.cell_route_ms += d.router.cell_route_ms;
    router.rack_route_ms += d.router.rack_route_ms;
    router.barrier_stall_ms += d.router.barrier_stall_ms;
    router.routing_barriers += d.router.routing_barriers;
    router.migration_barriers += d.router.migration_barriers;
    router.victims_migrated += d.router.victims_migrated;
    snapshot.Accumulate(d.snapshot);
    fabric.publishes += d.fabric.publishes;
    fabric.settlements += d.fabric.settlements;
    fabric.bytes_replicated += d.fabric.bytes_replicated;
  }
};

LayerValues ToLayerValues(const LayerTotals& t) {
  LayerValues v;
  const auto add = [&v](const char* name, double value) { v.emplace_back(name, value); };
  const auto count = [&v](const char* name, uint64_t value) {
    v.emplace_back(name, static_cast<double>(value));
  };
  add("trace.generate_s", t.trace_generate_s);
  count("trace.arrivals", t.trace_arrivals);
  add("faas.build_s", t.faas_build_s);
  add("faas.submit_s", t.faas_submit_s);
  add("faas.warmup_s", t.faas_warmup_s);
  add("faas.measure_s", t.faas_measure_s);

  uint64_t events = 0;
  uint64_t event_ns = 0;
  for (size_t k = 0; k < EventProfile::kKinds; ++k) {
    events += t.event_count[k];
    event_ns += t.event_ns[k];
  }
  count("faas.events", events);
  add("faas.ns_per_event", Ratio(static_cast<double>(event_ns), static_cast<double>(events)));
  for (size_t k = 0; k < EventProfile::kKinds; ++k) {
    const std::string prefix =
        std::string("faas.event.") + EventKindName(static_cast<EventKind>(k));
    v.emplace_back(prefix + "_ms", static_cast<double>(t.event_ns[k]) * 1e-6);
    v.emplace_back(prefix + "_n", static_cast<double>(t.event_count[k]));
  }
  count("faas.cold_boots", t.window.cold_boots);
  count("faas.warm_starts", t.window.warm_starts);
  count("faas.evictions", t.window.evictions);
  count("faas.stage_invocations", t.window.stage_invocations);
  count("faas.oom_kills", t.window.oom_kills);
  count("faas.node_crashes", t.window.node_crashes);
  count("faas.failovers", t.window.failovers);
  count("faas.retries", t.window.retries);

  add("core.callback_s", t.core_callback_s);
  count("core.callbacks", t.core_callbacks);
  count("core.reclaim_requests", t.desiccant.reclaim_requests);
  count("core.reclaim_aborts", t.desiccant.reclaim_aborts);
  add("core.released_mib", ToMiB(t.desiccant.bytes_released));
  add("core.mib_per_reclaim", Ratio(ToMiB(t.desiccant.bytes_released),
                                    static_cast<double>(t.desiccant.reclaim_requests)));
  count("core.pressure_activations", t.desiccant.node_pressure_activations);

  add("runtime.step_s", t.runtime_step_s);
  add("runtime.reclaim_s", t.runtime_reclaim_s);
  add("os.sample_s", t.os_sample_s);
  count("os.touch_calls", t.touch_calls);
  count("os.touch_pages", t.touch_pages);
  count("runtime.young_gcs", t.young_gcs);
  count("runtime.full_gcs", t.full_gcs);
  add("runtime.allocated_mib", ToMiB(t.allocated_bytes));
  count("os.minor_faults", t.minor_faults);

  count("os.kswapd_runs", t.pressure.kswapd_runs);
  count("os.kswapd_pages", t.pressure.kswapd_pages);
  add("os.pages_per_kswapd_run", Ratio(static_cast<double>(t.pressure.kswapd_pages),
                                       static_cast<double>(t.pressure.kswapd_runs)));
  count("os.direct_reclaims", t.pressure.direct_reclaim_events);
  count("os.direct_reclaim_pages", t.pressure.direct_reclaim_pages);
  count("os.swap_out_pages", t.pressure.swap_out_pages);
  count("os.commit_failures", t.pressure.commit_failures);

  add("router.cell_route_ms", t.router.cell_route_ms);
  add("router.rack_route_ms", t.router.rack_route_ms);
  add("router.barrier_stall_ms", t.router.barrier_stall_ms);
  count("router.routing_barriers", t.router.routing_barriers);
  count("router.migration_barriers", t.router.migration_barriers);
  count("router.victims_migrated", t.router.victims_migrated);
  add("engine.serial_s", t.engine_serial_s);

  uint64_t tier_hits = 0;
  for (const uint64_t hits : t.snapshot.tier_hits) {
    tier_hits += hits;
  }
  count("snapshot.restores_planned", t.snapshot.restores_planned);
  add("snapshot.hit_ratio", Ratio(static_cast<double>(tier_hits),
                                  static_cast<double>(t.snapshot.restores_planned)));
  count("snapshot.fallbacks", t.snapshot.fallback_cold_boots);
  count("snapshot.fetch_failures", t.snapshot.fetch_failures);
  add("snapshot.fetched_mib", ToMiB(t.snapshot.bytes_fetched));
  add("snapshot.flushed_mib", ToMiB(t.snapshot.bytes_flushed));
  count("snapshot.evictions", t.snapshot.evictions);
  count("fabric.publishes", t.fabric.publishes);
  count("fabric.settlements", t.fabric.settlements);
  add("fabric.replicated_mib", ToMiB(t.fabric.bytes_replicated));
  return v;
}

// ---------------------------------------------------------------------------
// One draw: a single input replayed once. RunRep pools the draws.

struct Draw {
  double setup_s = 0;
  double run_s = 0;
  double cpu_s = 0;
  uint64_t fingerprint = 0;
  std::vector<uint64_t> node_fingerprints;  // cell only
  uint64_t completed = 0;
  PercentileTracker latency_ms;
  double clean = 0;     // replays: clean window completions; chain: invocations
  double window_s = 0;  // replays: window seconds; chain: simulated seconds
  double window_arrivals = 0;
  double frozen_mib = 0;
  uint64_t oom_kills = 0;
  std::vector<std::string> failures;
  LayerTotals layers;
};

void FillReplayDraw(const PlatformMetrics& window, uint64_t warmup_completed,
                    const std::vector<TraceArrival>& arrivals, SimTime window_start,
                    uint64_t frozen_bytes, Draw* draw) {
  draw->completed = warmup_completed + window.requests_completed;
  draw->latency_ms = window.latency_ms;
  draw->clean = static_cast<double>(window.requests_completed - window.requests_retried_ok);
  draw->window_s = window.WindowSeconds();
  for (const TraceArrival& a : arrivals) {
    draw->window_arrivals += a.time >= window_start ? 1 : 0;
  }
  draw->frozen_mib = ToMiB(frozen_bytes);
  draw->oom_kills = window.oom_kills;
  draw->layers.trace_arrivals = arrivals.size();
  draw->layers.window = window;
  // ROADMAP item 5: a replay tier must carry its offered load.
  if (draw->clean < kMinGoodputShare * draw->window_arrivals) {
    char msg[160];
    std::snprintf(msg, sizeof(msg), "goodput %.0f is below %.2f x offered %.0f requests",
                  draw->clean, kMinGoodputShare, draw->window_arrivals);
    draw->failures.emplace_back(msg);
  }
}

// ---------------------------------------------------------------------------
// suite / pressure

const std::vector<WorkloadSpec>& CoarseSuite() {
  static const std::vector<WorkloadSpec> kSuite = [] {
    std::vector<WorkloadSpec> suite;
    for (const WorkloadSpec& w : WorkloadSuite()) {
      suite.push_back(CoarsenObjects(w, 4));
    }
    return suite;
  }();
  return kSuite;
}

Draw RunSuiteReplay(const ReplayShape& shape, const Seeds& seeds, bool traced, Timer& timer) {
  Draw draw;
  LayerTotals& layers = draw.layers;
  const double cpu_start = ProcessCpuSeconds();
  const SimTime warmup_end = FromSeconds(shape.warmup_s);
  const SimTime replay_end = warmup_end + FromSeconds(shape.measure_s);

  std::vector<TraceArrival> arrivals;
  layers.trace_generate_s = timer.Time("setup/generate", [&] {
    std::vector<const WorkloadSpec*> workloads;
    for (const WorkloadSpec& w : CoarseSuite()) {
      workloads.push_back(&w);
    }
    const TraceGenerator generator(seeds.trace);
    const auto functions = generator.BuildSuiteTrace(workloads);
    arrivals = generator.Generate(functions, shape.warmup_scale_factor, 0, warmup_end);
    const auto measure =
        generator.Generate(functions, shape.scale_factor, warmup_end, replay_end);
    arrivals.insert(arrivals.end(), measure.begin(), measure.end());
  });

  std::unique_ptr<Platform> platform;
  std::unique_ptr<DesiccantManager> manager;
  std::unique_ptr<ForwardingObserver> forwarder;
  layers.faas_build_s = timer.Time("setup/build", [&] {
    PlatformConfig config;
    config.mode = shape.mode;
    config.cache_capacity_bytes = 1536 * kMiB;
    config.cpu_cores = 1.6;
    config.seed = seeds.platform;
    if (shape.node_budget_mib != 0) {
      config.pressure =
          PhysicalMemoryConfig::ForBytes(shape.node_budget_mib * kMiB, shape.swap_mib * kMiB);
    }
    platform = std::make_unique<Platform>(config);
    if (shape.mode == MemoryMode::kDesiccant) {
      manager = std::make_unique<DesiccantManager>(platform.get(), DesiccantConfig{});
      if (traced) {
        forwarder = std::make_unique<ForwardingObserver>(manager.get());
        platform->set_observer(forwarder.get());
      }
    }
  });
  layers.faas_submit_s = timer.Time("setup/submit", [&] {
    platform->ReserveEvents(arrivals.size());
    for (const TraceArrival& a : arrivals) {
      platform->Submit(a.workload, a.time);
    }
  });
  draw.setup_s = layers.trace_generate_s + layers.faas_build_s + layers.faas_submit_s;

  layers.faas_warmup_s = timer.Time("run/warmup", [&] { platform->RunUntil(warmup_end); });
  const uint64_t warmup_completed = platform->metrics().requests_completed;
  layers.faas_measure_s = timer.Time("run/measure", [&] {
    platform->BeginMeasurement();
    platform->RunUntil(replay_end);
  });
  draw.run_s = layers.faas_warmup_s + layers.faas_measure_s;
  draw.cpu_s = ProcessCpuSeconds() - cpu_start;

  const PlatformMetrics& window = platform->FinishMeasurement();
  FillReplayDraw(window, warmup_completed, arrivals, warmup_end,
                 platform->FrozenMemoryBytes(), &draw);
  Digest digest;
  digest.Mix(window.Fingerprint());
  digest.Mix(warmup_completed);
  digest.Mix(platform->FrozenMemoryBytes());
  if (manager != nullptr) {
    layers.desiccant.Accumulate(*manager);
    digest.Mix(manager->bytes_released());
    digest.Mix(manager->reclaim_requests());
  }
  if (const PhysicalMemory* node = platform->physical_memory()) {
    layers.pressure = node->stats();
    digest.Mix(layers.pressure.kswapd_pages);
    digest.Mix(layers.pressure.swap_out_pages);
  }
  draw.fingerprint = digest.value();
  if (forwarder != nullptr) {
    layers.core_callback_s = forwarder->seconds();
    layers.core_callbacks = forwarder->calls();
  }
  return draw;
}

// ---------------------------------------------------------------------------
// cell

ShardedClusterConfig CellConfig(const CellShape& shape, const Seeds& seeds, size_t threads) {
  ShardedClusterConfig config;
  config.node_count = shape.nodes;
  config.rack_count = shape.racks;
  config.threads = threads;
  config.routing = RoutingPolicy::kAffinity;
  config.inter_rack_delay_ms = ToMillis(config.network_delay) / 2;
  config.node.mode = MemoryMode::kDesiccant;
  // Eight cores per node keep the affinity hot spots from queueing: at four,
  // the p99 (about 20 s) measured the hottest node's backlog and varied by
  // 20% across seeds; at eight it is about 2.3 s and varies by 9%.
  config.node.cpu_cores = 8.0;
  config.node.cache_capacity_bytes = 768 * kMiB;
  config.node.seed = seeds.platform;
  config.node.log_retention = PlatformConfig::LogRetention::kCountersOnly;
  config.node.snapstart_restore = true;
  config.node.snapshot = SnapshotConfig::ThreeTier();
  config.node.snapshot.reap_prefetch = true;
  config.node.snapshot.fabric.enabled = true;
  config.node.snapshot.fabric.rack_count = static_cast<uint32_t>(shape.racks);
  config.node.snapshot.fabric.replication_factor = 2;
  config.node.faults.seed = seeds.faults;
  config.node.faults.node_crash_mtbf_seconds = shape.crash_mtbf_s;
  config.node.faults.node_crash_horizon = FromSeconds(shape.warmup_s + shape.measure_s);
  return config;
}

Draw RunCellReplay(const CellShape& shape, const Seeds& seeds, bool traced, size_t threads,
                   Timer& timer) {
  Draw draw;
  LayerTotals& layers = draw.layers;
  const double cpu_start = ProcessCpuSeconds();
  const SimTime warmup_end = FromSeconds(shape.warmup_s);
  const SimTime replay_end = warmup_end + FromSeconds(shape.measure_s);

  std::unique_ptr<SyntheticPopulation> population;
  std::vector<TraceArrival> arrivals;
  layers.trace_generate_s = timer.Time("setup/generate", [&] {
    population = std::make_unique<SyntheticPopulation>(
        PopulationConfig::AzureLike(shape.functions, seeds.population));
    arrivals = TraceGenerator(seeds.trace)
                   .Generate(population->trace_functions(), shape.scale_factor, 0, replay_end);
  });

  std::unique_ptr<ShardedCluster> cluster;
  std::vector<std::unique_ptr<DesiccantManager>> managers;
  std::vector<std::unique_ptr<ForwardingObserver>> forwarders;
  layers.faas_build_s = timer.Time("setup/build", [&] {
    cluster = std::make_unique<ShardedCluster>(CellConfig(shape, seeds, threads));
    for (size_t i = 0; i < cluster->node_count(); ++i) {
      managers.push_back(
          std::make_unique<DesiccantManager>(&cluster->node(i), DesiccantConfig{}));
      if (traced) {
        forwarders.push_back(std::make_unique<ForwardingObserver>(managers.back().get()));
        cluster->node(i).set_observer(forwarders.back().get());
      }
    }
  });
  layers.faas_submit_s = timer.Time("setup/submit", [&] {
    cluster->ReserveFunctions(population->workloads().size());
    cluster->ReserveEvents(arrivals.size());
    for (const TraceArrival& a : arrivals) {
      cluster->Submit(a.workload, a.time);
    }
  });
  draw.setup_s = layers.trace_generate_s + layers.faas_build_s + layers.faas_submit_s;

  layers.faas_warmup_s = timer.Time("run/warmup", [&] { cluster->RunUntil(warmup_end); });
  uint64_t warmup_completed = 0;
  for (size_t i = 0; i < cluster->node_count(); ++i) {
    warmup_completed += cluster->node(i).metrics().requests_completed;
  }
  layers.faas_measure_s = timer.Time("run/measure", [&] {
    cluster->BeginMeasurement();
    cluster->RunUntil(replay_end);
  });
  draw.run_s = layers.faas_warmup_s + layers.faas_measure_s;
  draw.cpu_s = ProcessCpuSeconds() - cpu_start;

  const PlatformMetrics window = cluster->AggregateMetrics();
  uint64_t frozen = 0;
  for (size_t i = 0; i < cluster->node_count(); ++i) {
    frozen += cluster->node(i).FrozenMemoryBytes();
  }
  FillReplayDraw(window, warmup_completed, arrivals, warmup_end, frozen, &draw);
  draw.node_fingerprints = cluster->NodeFingerprints();
  for (const auto& manager : managers) {
    layers.desiccant.Accumulate(*manager);
  }
  Digest digest;
  digest.Mix(window.Fingerprint());
  digest.Mix(warmup_completed);
  digest.Mix(frozen);
  digest.Mix(layers.desiccant.bytes_released);
  digest.Mix(layers.desiccant.reclaim_requests);
  for (const uint64_t node : draw.node_fingerprints) {
    digest.Mix(node);
  }
  draw.fingerprint = digest.value();

  for (const auto& forwarder : forwarders) {
    layers.core_callback_s += forwarder->seconds();
    layers.core_callbacks += forwarder->calls();
  }
  layers.router = cluster->router_stats();
  for (size_t i = 0; i < cluster->node_count(); ++i) {
    if (const SnapshotStore* store = cluster->node(i).snapshot_store()) {
      layers.snapshot.Accumulate(store->stats());
    }
  }
  if (const SharedSnapshotFabric* fabric = cluster->fabric()) {
    layers.fabric = fabric->stats();
  }
  return draw;
}

// ---------------------------------------------------------------------------
// chain

// One ChainStudy::Step, either through the library call or — in traced
// repetitions, which count each stage's MutatorStats — through the same
// sequence of public Instance calls ChainStudy::Step makes. The traced
// fingerprint must equal the untraced one, which pins the two together.
ChainSample StepChain(ChainStudy& study, StudyMode mode, LayerTotals* counters) {
  if (counters == nullptr) {
    return study.Step();
  }
  auto& instances = study.instances();
  SimTime duration = 0;
  for (size_t stage = 0; stage < instances.size(); ++stage) {
    if (stage > 0 && instances[stage - 1]->program().has_carry()) {
      instances[stage - 1]->program().ConsumeCarry(instances[stage - 1]->runtime());
    }
    Instance& instance = *instances[stage];
    if (instance.state() == InstanceState::kFrozen) {
      duration += instance.Thaw();
    }
    const InvocationOutcome outcome = instance.Execute();
    duration += outcome.duration;
    counters->allocated_bytes += outcome.mutator.allocated_bytes;
    counters->minor_faults += outcome.mutator.minor_faults;
    if (mode == StudyMode::kEager) {
      duration += instance.EagerGc();
    }
    instance.Freeze(instance.exec_clock().Now());
  }
  ChainSample sample = study.Sample();
  sample.duration = duration;
  return sample;
}

void MixSample(const ChainSample& s, Digest* digest) {
  digest->Mix(s.uss);
  digest->Mix(s.rss);
  digest->MixDouble(s.pss);
  digest->Mix(s.ideal_uss);
  digest->Mix(s.duration);
}

Draw RunChain(const Seeds& seeds, bool traced, Timer& timer) {
  Draw draw;
  LayerTotals& layers = draw.layers;
  const double cpu_start = ProcessCpuSeconds();
  LayerTotals* counters = traced ? &layers : nullptr;
  Digest digest;
  uint64_t frozen_bytes = 0;

  const std::vector<WorkloadSpec>& suite = WorkloadSuite();
  for (size_t f = 0; f < suite.size(); ++f) {
    StudyConfig vanilla_config;
    vanilla_config.seed = Rng::MixSeed(seeds.study, f);
    StudyConfig eager_config = vanilla_config;
    eager_config.mode = StudyMode::kEager;
    // vanilla, eager, and the Desiccant arm (vanilla steps, reclaim at the end).
    const StudyConfig* configs[] = {&vanilla_config, &eager_config, &vanilla_config};
    std::vector<std::unique_ptr<ChainStudy>> studies;
    std::vector<std::unique_ptr<TouchCounter>> touch;
    draw.setup_s += timer.Time("setup/studies", [&] {
      for (const StudyConfig* config : configs) {
        studies.push_back(std::make_unique<ChainStudy>(suite[f], *config));
      }
    });
    if (traced) {
      for (auto& study : studies) {
        for (auto& instance : study->instances()) {
          touch.push_back(std::make_unique<TouchCounter>());
          instance->runtime().address_space().set_touch_listener(touch.back().get());
        }
      }
    }
    layers.runtime_step_s += timer.Time("run/step", [&] {
      for (int i = 0; i < kChainSteps; ++i) {
        for (size_t arm = 0; arm < studies.size(); ++arm) {
          const ChainSample sample = StepChain(*studies[arm], configs[arm]->mode, counters);
          draw.latency_ms.Add(ToMillis(sample.duration));
          draw.window_s += ToSeconds(sample.duration);
          MixSample(sample, &digest);
        }
      }
    });
    ChainStudy& desiccant = *studies.back();
    layers.runtime_reclaim_s += timer.Time("run/reclaim", [&] {
      const ReclaimResult reclaimed = desiccant.ReclaimAll(ReclaimOptions{}, true);
      digest.Mix(reclaimed.released_pages);
      digest.Mix(reclaimed.cpu_time);
    });
    layers.os_sample_s += timer.Time("run/sample", [&] {
      for (auto& study : studies) {
        const ChainSample sample = study->Sample();
        MixSample(sample, &digest);
        if (study.get() == &desiccant) {
          frozen_bytes += sample.uss;
        }
      }
    });
    for (auto& study : studies) {
      for (auto& instance : study->instances()) {
        const HeapStats heap = instance->runtime().GetHeapStats();
        layers.young_gcs += heap.young_gc_count;
        layers.full_gcs += heap.full_gc_count;
        instance->runtime().address_space().set_touch_listener(nullptr);
      }
    }
    for (const auto& counter : touch) {
      layers.touch_calls += counter->calls();
      layers.touch_pages += counter->pages();
    }
  }
  draw.run_s = layers.runtime_step_s + layers.runtime_reclaim_s + layers.os_sample_s;
  draw.cpu_s = ProcessCpuSeconds() - cpu_start;

  draw.completed = draw.latency_ms.count();
  draw.clean = static_cast<double>(draw.completed);
  draw.frozen_mib = ToMiB(frozen_bytes);
  digest.Mix(frozen_bytes);
  digest.Mix(layers.young_gcs);
  digest.Mix(layers.full_gcs);
  draw.fingerprint = digest.value();
  return draw;
}

int DrawCount(Workload workload) {
  switch (workload) {
    case Workload::kSuite: return kSuiteShape.draws;
    case Workload::kPressure: return kPressureShape.draws;
    case Workload::kCell: return CellShape{}.draws;
    case Workload::kChain: return 1;
  }
  return 1;
}

Draw RunDraw(Workload workload, const Seeds& seeds, bool traced, size_t threads,
             Timer& timer) {
  switch (workload) {
    case Workload::kSuite: return RunSuiteReplay(kSuiteShape, seeds, traced, timer);
    case Workload::kPressure: return RunSuiteReplay(kPressureShape, seeds, traced, timer);
    case Workload::kCell: return RunCellReplay(CellShape{}, seeds, traced, threads, timer);
    case Workload::kChain: return RunChain(seeds, traced, timer);
  }
  return {};
}

}  // namespace

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kSuite: return "suite";
    case Workload::kPressure: return "pressure";
    case Workload::kCell: return "cell";
    case Workload::kChain: return "chain";
  }
  return "?";
}

bool ParseWorkload(const std::string& name, Workload* out) {
  for (const Workload w :
       {Workload::kSuite, Workload::kPressure, Workload::kCell, Workload::kChain}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

Seeds DeriveSeeds(uint64_t seed) {
  Seeds seeds;
  seeds.trace = Rng::MixSeed(seed, 0x7472616365ull);   // "trace"
  seeds.population = Rng::MixSeed(seed, 0x706f70ull);  // "pop"
  seeds.platform = Rng::MixSeed(seed, 0x706c6174ull);  // "plat"
  seeds.study = Rng::MixSeed(seed, 0x7374756479ull);   // "study"
  seeds.faults = Rng::MixSeed(seed, 0x6661756c74ull);  // "fault"
  return seeds;
}

RepResult RunRep(Workload workload, uint64_t seed, bool traced, size_t threads) {
  RepResult rep;
  LayerTotals layers;
  PercentileTracker latency_ms;
  Digest digest;
  double clean = 0;
  double window_s = 0;
  double window_arrivals = 0;
  const int draws = DrawCount(workload);
  // Traced cell: each draw's aggregate and per-node fingerprints, compared
  // with a serial replay below.
  std::vector<std::pair<uint64_t, std::vector<uint64_t>>> cell_fingerprints;
  for (int k = 0; k < draws; ++k) {
    Timer timer(traced ? &rep.spans : nullptr, "draw" + std::to_string(k) + "/");
    const Draw draw =
        RunDraw(workload, DeriveSeeds(Rng::MixSeed(seed, k)), traced, threads, timer);
    rep.setup_s += draw.setup_s;
    rep.run_s += draw.run_s;
    rep.cpu_s += draw.cpu_s;
    digest.Mix(draw.fingerprint);
    rep.completed += draw.completed;
    draw.latency_ms.ForEachSample([&latency_ms](double ms) { latency_ms.Add(ms); });
    clean += draw.clean;
    window_s += draw.window_s;
    window_arrivals += draw.window_arrivals;
    rep.frozen_mib += draw.frozen_mib / draws;
    rep.oom_kills += draw.oom_kills;
    for (const std::string& failure : draw.failures) {
      rep.failures.push_back("draw " + std::to_string(k) + ": " + failure);
    }
    layers.Add(draw.layers);
    if (traced && workload == Workload::kCell) {
      cell_fingerprints.emplace_back(draw.fingerprint, draw.node_fingerprints);
    }
  }
  rep.fingerprint = digest.value();
  rep.p99_ms = latency_ms.Percentile(99);
  rep.latency_samples = latency_ms.count();
  rep.goodput_rps = Ratio(clean, window_s);
  rep.offered_rps = Ratio(window_arrivals, window_s);
  if (!traced) {
    return rep;
  }
  layers.ReadEventProfile();
  // The cell once more at one thread, untraced: engine.serial_s and the
  // thread-count determinism check.
  for (size_t k = 0; k < cell_fingerprints.size(); ++k) {
    Timer untimed(nullptr, "");
    const Draw serial = RunCellReplay(CellShape{}, DeriveSeeds(Rng::MixSeed(seed, k)),
                                      /*traced=*/false, 1, untimed);
    if (serial.fingerprint != cell_fingerprints[k].first ||
        serial.node_fingerprints != cell_fingerprints[k].second) {
      rep.failures.push_back("draw " + std::to_string(k) + ": cell replay at 1 thread and at " +
                             std::to_string(threads) + " threads gives different fingerprints");
    }
    layers.engine_serial_s += serial.run_s;
  }
  rep.layers = ToLayerValues(layers);
  return rep;
}

std::vector<std::string> LayerMetricNames() {
  std::vector<std::string> names;
  for (const auto& [name, value] : ToLayerValues(LayerTotals{})) {
    names.push_back(name);
  }
  return names;
}

}  // namespace perfbench
