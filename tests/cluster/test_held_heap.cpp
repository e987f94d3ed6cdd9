// Held heap per terminal job: a drained closed run and a drained service
// must hold heap in proportion to their live jobs, not to their history.
// A finished job may keep only its schedd record shell (about 250 B);
// its ad, spec, offload profile and run are freed when it ends.
//
// This binary replaces the global operator new and delete to count the
// heap bytes live at any moment, so it holds no other suite.
#include <gtest/gtest.h>

#include <malloc.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "cluster/harness.hpp"
#include "cluster/service.hpp"
#include "workload/jobset.hpp"

namespace {

std::atomic<std::int64_t> g_live_bytes{0};

void* counted_alloc(std::size_t n) noexcept {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p != nullptr) {
    g_live_bytes.fetch_add(static_cast<std::int64_t>(malloc_usable_size(p)),
                           std::memory_order_relaxed);
  }
  return p;
}

void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

void* operator new(std::size_t n) {
  void* p = counted_alloc(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n) { return operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}

namespace phisched::cluster {
namespace {

/// Heap a finished job may still hold: its record shell, with room for
/// the id index and per-time rows (utilization samples, SLA windows).
constexpr double kMaxBytesPerTerminalJob = 512.0;

std::int64_t live_bytes() {
  return g_live_bytes.load(std::memory_order_relaxed);
}

struct Held {
  std::int64_t bytes = 0;
  std::size_t terminal_jobs = 0;
};

/// Heap a drained closed MCCK harness holds for `jobs` Table I jobs.
Held drained_harness(std::size_t jobs) {
  ExperimentConfig config;
  config.node_count = 8;
  config.stack = StackConfig::kMCCK;
  config.seed = 42;
  const workload::JobSet set =
      workload::make_real_jobset(jobs, Rng(42).child("jobs"));
  const std::int64_t before = live_bytes();
  Harness harness(config);
  harness.submit(set);
  (void)harness.run_to_completion();
  return {live_bytes() - before,
          harness.jobs_completed() + harness.jobs_failed()};
}

/// Heap a drained MCCK service holds after an open-loop run to `horizon`
/// at 1.2x the capacity of 8 nodes, queue depth 32.
Held drained_service(SimTime horizon) {
  ServiceConfig config;
  config.cluster.node_count = 8;
  config.cluster.stack = StackConfig::kMCCK;
  config.cluster.seed = 42;
  config.arrivals.kind = workload::ArrivalKind::kPoisson;
  config.arrivals.rate = 0.337;
  config.admission.max_queue_depth = 32;
  config.horizon_s = horizon;
  const std::int64_t before = live_bytes();
  Service service(config);
  (void)service.run();
  const Harness& harness = service.harness();
  return {live_bytes() - before,
          harness.jobs_completed() + harness.jobs_failed()};
}

double bytes_per_extra_job(const Held& small, const Held& large) {
  EXPECT_GT(small.bytes, 0) << "the counting operator new is not in use";
  EXPECT_GT(large.terminal_jobs, small.terminal_jobs);
  return static_cast<double>(large.bytes - small.bytes) /
         static_cast<double>(large.terminal_jobs - small.terminal_jobs);
}

TEST(HeldHeap, DrainedHarnessHoldsOnlyRecordShells) {
  (void)drained_harness(20);  // warm lazily built statics
  const Held small = drained_harness(200);
  const Held large = drained_harness(800);
  EXPECT_EQ(large.terminal_jobs, 800u);
  EXPECT_LE(bytes_per_extra_job(small, large), kMaxBytesPerTerminalJob)
      << "held " << small.bytes << " B for " << small.terminal_jobs
      << " jobs, " << large.bytes << " B for " << large.terminal_jobs;
}

TEST(HeldHeap, DrainedServiceHoldsOnlyRecordShells) {
  (void)drained_service(300.0);  // warm lazily built statics
  const Held small = drained_service(2000.0);
  const Held large = drained_service(8000.0);
  EXPECT_LE(bytes_per_extra_job(small, large), kMaxBytesPerTerminalJob)
      << "held " << small.bytes << " B for " << small.terminal_jobs
      << " jobs, " << large.bytes << " B for " << large.terminal_jobs;
}

}  // namespace
}  // namespace phisched::cluster
