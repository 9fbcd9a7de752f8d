// Probes a traced repetition attaches through the simulator's public
// interfaces. Both are pure pass-throughs: a forwarding observer that times
// the Desiccant manager's callbacks, and a touch counter on an address space.
#ifndef PERFBENCH_HARNESS_PROBES_H_
#define PERFBENCH_HARNESS_PROBES_H_

#include <chrono>
#include <cstdint>

#include "src/faas/platform.h"
#include "src/os/virtual_memory.h"

namespace perfbench {

// Sits between a Platform and its observer (the DesiccantManager), forwards
// every callback unchanged, and accumulates the host time spent inside it.
// One instance per node: a shard's node is only ever called from that
// shard's worker thread, so the counters need no synchronization.
class ForwardingObserver : public desiccant::PlatformObserver {
 public:
  explicit ForwardingObserver(desiccant::PlatformObserver* inner) : inner_(inner) {}

  void OnInstanceFrozen(desiccant::Instance* instance) override {
    Timed([&] { inner_->OnInstanceFrozen(instance); });
  }
  void OnInstanceEvicted(desiccant::Instance* instance) override {
    Timed([&] { inner_->OnInstanceEvicted(instance); });
  }
  void OnInstanceDestroyed(desiccant::Instance* instance) override {
    Timed([&] { inner_->OnInstanceDestroyed(instance); });
  }
  void OnReclaimDone(desiccant::FunctionId function, desiccant::Instance* instance,
                     const desiccant::ReclaimResult& result) override {
    Timed([&] { inner_->OnReclaimDone(function, instance, result); });
  }
  void OnFault(const desiccant::FaultEvent& event) override {
    Timed([&] { inner_->OnFault(event); });
  }
  void OnTick() override {
    Timed([&] { inner_->OnTick(); });
  }

  uint64_t calls() const { return calls_; }
  double seconds() const { return static_cast<double>(ns_) * 1e-9; }

 private:
  template <typename F>
  void Timed(F&& forward) {
    const auto start = std::chrono::steady_clock::now();
    forward();
    ns_ += static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                     std::chrono::steady_clock::now() - start)
                                     .count());
    ++calls_;
  }

  desiccant::PlatformObserver* inner_;
  uint64_t calls_ = 0;
  uint64_t ns_ = 0;
};

// Counts Touch() work on one address space: calls that faulted or re-touched
// pages, and the pages they covered.
class TouchCounter : public desiccant::TouchListener {
 public:
  virtual ~TouchCounter() = default;

  void OnTouch(desiccant::RegionId region, uint64_t first_page, uint64_t pages) override {
    (void)region;
    (void)first_page;
    ++calls_;
    pages_ += pages;
  }

  uint64_t calls() const { return calls_; }
  uint64_t pages() const { return pages_; }

 private:
  uint64_t calls_ = 0;
  uint64_t pages_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_PROBES_H_
