#include "common/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

namespace phisched {
namespace {

/// Counts the items running at once and keeps the peak.
class Occupancy {
 public:
  /// Runs one item that stays busy long enough for others to overlap it.
  void item() {
    const int now = running_.fetch_add(1) + 1;
    int seen = peak_.load();
    while (now > seen && !peak_.compare_exchange_weak(seen, now)) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    running_.fetch_sub(1);
  }
  [[nodiscard]] int peak() const { return peak_.load(); }

 private:
  std::atomic<int> running_{0};
  std::atomic<int> peak_{0};
};

// The `ThreadPool` cases state the guarantees of the work-stealing pool
// that `parallel_for` replaced and keep the ids they had then; "pool" in
// their names means the caller and the threads one call starts.

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  parallel_for(kN, [&](std::size_t i) { hits[i].fetch_add(1); }, 4);
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, ResultsIndependentOfScheduling) {
  const auto run = [](unsigned max_threads) {
    std::vector<double> out(257);
    parallel_for(
        out.size(),
        [&](std::size_t i) { out[i] = static_cast<double>(i) * 0.5; },
        max_threads);
    return out;
  };
  const std::vector<double> serial = run(1);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_DOUBLE_EQ(serial[i], static_cast<double>(i) * 0.5);
  }
  for (const unsigned max_threads : {0u, 2u, 3u, 16u}) {
    EXPECT_EQ(run(max_threads), serial) << max_threads << " threads";
  }
}

TEST(ThreadPool, ZeroItemsIsANoOp) {
  bool ran = false;
  parallel_for(0, [&](std::size_t) { ran = true; }, 2);
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, MaxParticipantsOneRunsSeriallyInCaller) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen(64);
  parallel_for(
      seen.size(), [&](std::size_t i) { seen[i] = std::this_thread::get_id(); },
      /*max_threads=*/1);
  for (const auto& id : seen) EXPECT_EQ(id, caller);
}

TEST(ThreadPool, MoreItemsThanThreadsCompletes) {
  std::atomic<std::size_t> sum{0};
  parallel_for(10000, [&](std::size_t i) { sum.fetch_add(i); }, 2);
  EXPECT_EQ(sum.load(), std::size_t{10000} * 9999 / 2);
}

TEST(ThreadPool, MoreThreadsThanItemsCompletes) {
  std::vector<std::atomic<int>> hits(3);
  parallel_for(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); }, 8);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, AtMostTheCapRunsAtOnce) {
  Occupancy flat;
  parallel_for(24, [&](std::size_t) { flat.item(); }, 3);
  EXPECT_LE(flat.peak(), 3);

  Occupancy few;
  parallel_for(2, [&](std::size_t) { few.item(); }, 8);
  EXPECT_LE(few.peak(), 2);
}

TEST(ThreadPool, ExceptionPropagatesAndPoolStaysUsable) {
  EXPECT_THROW(parallel_for(
                   100,
                   [](std::size_t i) {
                     if (i == 57) throw std::runtime_error("boom");
                   },
                   2),
               std::runtime_error);
  std::atomic<int> count{0};
  parallel_for(10, [&](std::size_t) { count.fetch_add(1); }, 2);
  EXPECT_EQ(count.load(), 10);
}

TEST(ParallelFor, NestedCallsRunEveryIndex) {
  std::vector<std::atomic<int>> inner(16);
  parallel_for(
      4,
      [&](std::size_t outer) {
        parallel_for(
            4, [&](std::size_t j) { inner[outer * 4 + j].fetch_add(1); }, 4);
      },
      2);
  for (auto& h : inner) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, NestedCallsStayUnderTheOutermostCap) {
  // Every nested call asks for more threads than the outer cap allows;
  // the outermost call's 3 bounds the whole sweep anyway, including once
  // outer threads finish and their slots are lent to nested calls.
  Occupancy leaves;
  std::atomic<int> done{0};
  parallel_for(
      5,
      [&](std::size_t) {
        parallel_for(6, [&](std::size_t) { leaves.item(); }, 8);
        done.fetch_add(1);
      },
      3);
  EXPECT_EQ(done.load(), 5);
  EXPECT_LE(leaves.peak(), 3);
}

TEST(ParallelFor, SerialOuterCallKeepsNestedCallsInTheCaller) {
  // The nested calls ask for 4 threads and their items last long enough
  // for started threads to take some; the serial outer call starts none.
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen(24);
  parallel_for(
      3,
      [&](std::size_t outer) {
        parallel_for(
            8,
            [&](std::size_t j) {
              seen[outer * 8 + j] = std::this_thread::get_id();
              std::this_thread::sleep_for(std::chrono::milliseconds(1));
            },
            /*max_threads=*/4);
      },
      /*max_threads=*/1);
  for (const auto& id : seen) EXPECT_EQ(id, caller);
}

TEST(ThreadPool, UnevenWorkStillCoversAllIndices) {
  constexpr std::size_t kN = 200;
  std::vector<std::atomic<int>> hits(kN);
  parallel_for(
      kN,
      [&](std::size_t i) {
        // Skew the cost so the cheap items are taken around the slow ones.
        volatile std::size_t spin = (i < 4) ? 200000 : 10;
        while (spin > 0) spin = spin - 1;
        hits[i].fetch_add(1);
      },
      4);
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

}  // namespace
}  // namespace phisched
