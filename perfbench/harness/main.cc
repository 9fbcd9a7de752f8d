// perfbench: the benchmark's measuring process. perfbench/run.py builds it
// and drives it; run it by hand as
//
//   perfbench run --workload suite|pressure|cell|chain --seed N --seconds S [--traced]
//   perfbench host      # the host block
//   perfbench metrics   # per-layer metric names a traced run emits
//
// `run` prints one JSON object on stdout. Untraced, it repeats the workload
// for `--seconds` (at least twice) and reports each
// repetition's host times and simulated outputs. Traced (--traced, with
// DESICCANT_EVENT_PROFILE=1 in the environment) it runs one repetition with
// every probe on and adds the per-layer values and spans. Exit status is 1
// when any repetition failed an output check.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "harness/host.h"
#include "harness/workloads.h"
#include "src/faas/event_profile.h"

namespace {

using perfbench::RepResult;

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "\"%016" PRIx64 "\"", v);
  return buf;
}

std::string RepJson(const RepResult& r) {
  std::string s = "{";
  s += "\"setup_s\":" + Num(r.setup_s);
  s += ",\"run_s\":" + Num(r.run_s);
  s += ",\"cpu_s\":" + Num(r.cpu_s);
  s += ",\"fingerprint\":" + Hex(r.fingerprint);
  s += ",\"completed\":" + std::to_string(r.completed);
  s += ",\"p99_ms\":" + Num(r.p99_ms);
  s += ",\"latency_samples\":" + std::to_string(r.latency_samples);
  s += ",\"goodput_rps\":" + Num(r.goodput_rps);
  s += ",\"offered_rps\":" + Num(r.offered_rps);
  s += ",\"frozen_mib\":" + Num(r.frozen_mib);
  s += ",\"oom_kills\":" + std::to_string(r.oom_kills);
  s += ",\"failures\":[";
  for (size_t i = 0; i < r.failures.size(); ++i) {
    s += (i ? "," : "") + Quote(r.failures[i]);
  }
  s += "]";
  if (!r.layers.empty()) {
    s += ",\"layers\":{";
    for (size_t i = 0; i < r.layers.size(); ++i) {
      s += (i ? "," : "") + Quote(r.layers[i].first) + ":" + Num(r.layers[i].second);
    }
    s += "}";
  }
  if (!r.spans.empty()) {
    s += ",\"spans\":[";
    for (size_t i = 0; i < r.spans.size(); ++i) {
      s += (i ? "," : "") + std::string("[") + Quote(r.spans[i].name) + "," +
           Num(r.spans[i].start_s) + "," + Num(r.spans[i].seconds) + "]";
    }
    s += "]";
  }
  return s + "}";
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench run --workload suite|pressure|cell|chain --seed N "
               "--seconds S [--traced]\n"
               "       perfbench host | perfbench metrics\n");
  return 2;
}

int Run(int argc, char** argv) {
  std::string workload_name;
  uint64_t seed = 0;
  double seconds = -1;
  bool traced = false;
  bool have_seed = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--traced") {
      traced = true;
    } else if (arg == "--workload" && has_value) {
      workload_name = argv[++i];
    } else if (arg == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds" && has_value) {
      seconds = std::strtod(argv[++i], nullptr);
    } else {
      return Usage();
    }
  }
  perfbench::Workload workload;
  if (!perfbench::ParseWorkload(workload_name, &workload) || !have_seed || seconds < 0) {
    return Usage();
  }
  // The cell runs on every core; the other workloads are serial.
  const size_t threads = std::max(1u, std::thread::hardware_concurrency());
  // Two repetitions at least, so every run checks its own determinism.
  const size_t min_reps = 2;
  std::vector<RepResult> reps;
  if (traced) {
    if (!desiccant::EventProfile::Enabled()) {
      std::fprintf(stderr, "perfbench: --traced needs DESICCANT_EVENT_PROFILE=1\n");
      return 2;
    }
    desiccant::EventProfile::Reset();
    reps.push_back(perfbench::RunRep(workload, seed, /*traced=*/true, threads));
    // Reconciliation: every dispatched event is attributed to exactly one
    // kind.
    const uint64_t attributed = desiccant::EventProfile::AttributedTotal();
    const uint64_t dispatched = desiccant::EventProfile::Dispatched();
    if (attributed != dispatched) {
      reps.back().failures.push_back("event profile does not reconcile: " +
                                     std::to_string(attributed) + " attributed, " +
                                     std::to_string(dispatched) + " dispatched");
    }
  } else {
    const auto start = std::chrono::steady_clock::now();
    const auto elapsed = [&start] {
      return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    };
    // Past min_reps, start another repetition only if one of average length
    // still ends inside the measuring time.
    while (reps.size() < min_reps ||
           elapsed() * (reps.size() + 1) / reps.size() <= seconds) {
      reps.push_back(perfbench::RunRep(workload, seed, /*traced=*/false, threads));
    }
  }

  std::string out = "{\"workload\":" + Quote(perfbench::WorkloadName(workload));
  out += ",\"seed\":" + std::to_string(seed);
  out += ",\"traced\":" + std::string(traced ? "true" : "false");
  out += ",\"threads\":" + std::to_string(threads);
  out += ",\"peak_rss_mib\":" + Num(PeakRssMiB());
  out += ",\"reps\":[";
  bool failed = false;
  for (size_t i = 0; i < reps.size(); ++i) {
    out += (i ? "," : "") + RepJson(reps[i]);
    failed = failed || !reps[i].failures.empty();
  }
  out += "]}";
  std::printf("%s\n", out.c_str());
  return failed ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return Usage();
  }
  const std::string command = argv[1];
  if (command == "host") {
    const perfbench::HostInfo host = perfbench::ProbeHost();
    std::printf("{\"cores\":%u,\"cpu_model\":%s,\"compiler\":%s,\"build_type\":%s,"
                "\"benchmark_library_build_type\":%s}\n",
                host.cores, Quote(host.cpu_model).c_str(), Quote(host.compiler).c_str(),
                Quote(host.build_type).c_str(), Quote(host.benchmark_build_type).c_str());
    return 0;
  }
  if (command == "metrics") {
    for (const std::string& name : perfbench::LayerMetricNames()) {
      std::printf("%s\n", name.c_str());
    }
    return 0;
  }
  if (command == "run") {
    return Run(argc, argv);
  }
  return Usage();
}
