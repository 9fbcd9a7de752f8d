#include "harness/host.h"

#include <benchmark/benchmark.h>

#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {

namespace {

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

// The google-benchmark library stamps its own build type ("debug" when it
// was compiled without NDEBUG) into its JSON context; run one empty
// benchmark through its JSON reporter and read the field back.
std::string BenchmarkLibraryBuildType() {
  benchmark::RegisterBenchmark("perfbench/host_probe", [](benchmark::State& state) {
    for (auto _ : state) {
    }
  })->Iterations(1);
  std::ostringstream out;
  std::ostringstream err;
  benchmark::JSONReporter reporter;
  reporter.SetOutputStream(&out);
  reporter.SetErrorStream(&err);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  const std::string json = out.str();
  const std::string key = "\"library_build_type\": \"";
  const size_t at = json.find(key);
  if (at == std::string::npos) {
    return "unknown";
  }
  const size_t start = at + key.size();
  return json.substr(start, json.find('"', start) - start);
}

}  // namespace

HostInfo ProbeHost() {
  HostInfo host;
  host.cores = std::thread::hardware_concurrency();
  host.cpu_model = CpuModel();
#if defined(__clang__)
  host.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  host.compiler = std::string("gcc ") + __VERSION__;
#else
  host.compiler = "unknown";
#endif
  host.build_type = PERFBENCH_BUILD_TYPE;
  host.benchmark_build_type = BenchmarkLibraryBuildType();
  return host;
}

}  // namespace perfbench
