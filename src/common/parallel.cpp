#include "common/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace phisched {

namespace {

/// Threads a sweep may still start: its outermost call's cap minus the
/// threads running its items, nested calls' items included.
using Spare = std::atomic<unsigned>;

/// The sweep the current thread works for; null outside any call.
thread_local Spare* t_spare = nullptr;

/// Takes up to `want` threads from `spare` and returns how many it took.
unsigned take(Spare& spare, unsigned want) {
  unsigned have = spare.load();
  unsigned got = 0;
  do {
    got = std::min(have, want);
  } while (got > 0 && !spare.compare_exchange_weak(have, have - got));
  return got;
}

}  // namespace

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                  unsigned max_threads) {
  if (n == 0) return;
  const unsigned cap = max_threads > 0
                           ? max_threads
                           : std::max(1u, std::thread::hardware_concurrency());
  // The sweep's budget if this is the outermost call: the caller is one
  // of its `cap` threads.
  Spare own{cap - 1};

  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::mutex error_m;
  std::exception_ptr error;
  const auto work = [&] {
    for (std::size_t i = next++; i < n && !failed; i = next++) {
      try {
        fn(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_m);
        if (error == nullptr) error = std::current_exception();
        failed = true;
      }
    }
  };

  // Reserved before the budget is touched, so a failure leaves it intact.
  const auto want = static_cast<unsigned>(std::min<std::size_t>(cap, n) - 1);
  std::vector<std::thread> threads;
  threads.reserve(want);

  // A call nested in an item draws on its outermost call's budget.
  Spare* const spare = t_spare != nullptr ? t_spare : &own;
  Spare* const enclosing = std::exchange(t_spare, spare);
  const unsigned extra = take(*spare, want);

  for (unsigned t = 0; t < extra; ++t) {
    try {
      threads.emplace_back([&work, spare] {
        t_spare = spare;
        work();
        *spare += 1;  // released: a nested call in a running item may reuse it
      });
    } catch (...) {
      // No thread or no memory for one: hand back what never started and
      // run the items on the threads that did.
      *spare += extra - t;
      break;
    }
  }
  work();
  for (std::thread& thread : threads) thread.join();
  t_spare = enclosing;
  if (error != nullptr) std::rethrow_exception(error);
}

}  // namespace phisched
