// Tests for the benchmark's own code: the probes a traced run attaches must
// be transparent, and the per-layer metric names must be well formed.
//
//   cmake -S perfbench -B .bench_build/perfbench -DPERFBENCH_TESTS=ON
//   cmake --build .bench_build/perfbench --target perfbench_test
//   .bench_build/perfbench/perfbench_test
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <set>

#include "harness/probes.h"
#include "harness/workloads.h"
#include "src/core/desiccant_manager.h"
#include "src/faas/platform.h"
#include "src/faas/single_study.h"
#include "src/trace/azure_trace.h"
#include "src/workloads/function_spec.h"

namespace perfbench {
namespace {

using namespace desiccant;

// A short Desiccant replay of the coarsened suite; returns the window
// fingerprint. With `forward`, a ForwardingObserver sits between the
// platform and the manager.
uint64_t ReplayFingerprint(bool forward, uint64_t* forwarded_calls) {
  static const std::vector<WorkloadSpec> suite = [] {
    std::vector<WorkloadSpec> out;
    for (const WorkloadSpec& w : WorkloadSuite()) {
      out.push_back(CoarsenObjects(w, 4));
    }
    return out;
  }();
  std::vector<const WorkloadSpec*> workloads;
  for (const WorkloadSpec& w : suite) {
    workloads.push_back(&w);
  }
  PlatformConfig config;
  config.mode = MemoryMode::kDesiccant;
  config.cache_capacity_bytes = 512 * kMiB;  // small, so the manager reclaims
  config.cpu_cores = 1.6;
  Platform platform(config);
  DesiccantManager manager(&platform, DesiccantConfig{});
  ForwardingObserver forwarder(&manager);
  if (forward) {
    platform.set_observer(&forwarder);
  }
  const TraceGenerator generator(7);
  const auto functions = generator.BuildSuiteTrace(workloads);
  for (const TraceArrival& a : generator.Generate(functions, 15.0, 0, FromSeconds(120))) {
    platform.Submit(a.workload, a.time);
  }
  platform.RunUntil(FromSeconds(30));
  platform.BeginMeasurement();
  platform.RunUntil(FromSeconds(120));
  *forwarded_calls = forwarder.calls();
  EXPECT_GT(manager.reclaim_requests(), 0u);
  return platform.FinishMeasurement().Fingerprint();
}

TEST(Probes, ForwardingObserverIsTransparent) {
  uint64_t direct_calls = 0;
  uint64_t forwarded_calls = 0;
  const uint64_t direct = ReplayFingerprint(false, &direct_calls);
  const uint64_t forwarded = ReplayFingerprint(true, &forwarded_calls);
  EXPECT_EQ(direct, forwarded);
  EXPECT_EQ(direct_calls, 0u);
  EXPECT_GT(forwarded_calls, 0u);
}

TEST(Probes, TouchCounterIsTransparent) {
  const WorkloadSpec& workload = WorkloadSuite().front();
  ChainStudy plain(workload, StudyConfig{});
  ChainStudy listened(workload, StudyConfig{});
  std::vector<std::unique_ptr<TouchCounter>> counters;
  for (auto& instance : listened.instances()) {
    counters.push_back(std::make_unique<TouchCounter>());
    instance->runtime().address_space().set_touch_listener(counters.back().get());
  }
  for (int i = 0; i < 5; ++i) {
    const ChainSample a = plain.Step();
    const ChainSample b = listened.Step();
    EXPECT_EQ(a.uss, b.uss);
    EXPECT_EQ(a.rss, b.rss);
    EXPECT_EQ(a.pss, b.pss);
    EXPECT_EQ(a.ideal_uss, b.ideal_uss);
    EXPECT_EQ(a.duration, b.duration);
  }
  uint64_t calls = 0;
  uint64_t pages = 0;
  for (size_t i = 0; i < counters.size(); ++i) {
    calls += counters[i]->calls();
    pages += counters[i]->pages();
    listened.instances()[i]->runtime().address_space().set_touch_listener(nullptr);
  }
  EXPECT_GT(calls, 0u);
  EXPECT_GE(pages, calls);
}

// The traced chain repetition steps the studies through Instance calls
// (to read MutatorStats) and attaches touch listeners; its fingerprint must
// equal the untraced repetition's, which calls ChainStudy::Step.
TEST(Workloads, TracedChainMatchesUntraced) {
  const RepResult plain = RunRep(Workload::kChain, 3, /*traced=*/false, 1);
  const RepResult probed = RunRep(Workload::kChain, 3, /*traced=*/true, 1);
  EXPECT_EQ(plain.fingerprint, probed.fingerprint);
  EXPECT_EQ(plain.p99_ms, probed.p99_ms);
  EXPECT_EQ(plain.frozen_mib, probed.frozen_mib);
  EXPECT_TRUE(plain.failures.empty());
  EXPECT_TRUE(plain.layers.empty());
  ASSERT_FALSE(probed.layers.empty());
  EXPECT_FALSE(probed.spans.empty());
}

TEST(Workloads, SeedsDeriveDistinctStreams) {
  const Seeds a = DeriveSeeds(1);
  const Seeds b = DeriveSeeds(2);
  EXPECT_NE(a.trace, b.trace);
  EXPECT_NE(a.population, b.population);
  EXPECT_NE(a.platform, b.platform);
  EXPECT_NE(a.study, b.study);
  EXPECT_NE(a.faults, b.faults);
  const std::set<uint64_t> distinct = {a.trace, a.population, a.platform, a.study, a.faults};
  EXPECT_EQ(distinct.size(), 5u);
}

TEST(Workloads, LayerMetricNamesAreWellFormedAndUnique) {
  const auto well_formed = [](const std::string& name) {
    return !name.empty() && std::all_of(name.begin(), name.end(), [](char c) {
      return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '.' || c == '-';
    });
  };
  std::set<std::string> seen;
  for (const std::string& metric : LayerMetricNames()) {
    EXPECT_TRUE(well_formed(metric)) << metric;
    EXPECT_LE(metric.size(), 64u) << metric;
    EXPECT_TRUE(seen.insert(metric).second) << "duplicate " << metric;
  }
  // Two per event kind, plus every layer's own metrics.
  EXPECT_GT(seen.size(), 2 * static_cast<size_t>(EventKind::kCount));
}

}  // namespace
}  // namespace perfbench
