// The host block: what a wall-clock figure was measured on. Compare host
// times only between runs whose host blocks match.
#ifndef PERFBENCH_HARNESS_HOST_H_
#define PERFBENCH_HARNESS_HOST_H_

#include <string>

namespace perfbench {

struct HostInfo {
  unsigned cores = 0;
  std::string cpu_model;
  std::string compiler;
  std::string build_type;            // CMAKE_BUILD_TYPE of the simulator libraries
  std::string benchmark_build_type;  // what the google-benchmark library reports
};

HostInfo ProbeHost();

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_HOST_H_
