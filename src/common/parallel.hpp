// Index-parallel loop behind every sweep in the codebase (bench seeds,
// cluster sizes).
//
// parallel_for(n, fn, max_threads) runs fn(0) .. fn(n-1): the caller and
// at most max_threads - 1 threads started for the call each take the next
// index from one shared atomic counter until none is left. An item is a
// whole simulation, so starting threads per call costs nothing measurable
// and no pool outlives the call.
//
// Guarantees:
//  * Deterministic results: fn(i) writes only to its own slot, so the
//    schedule cannot change outputs; every max_threads gives the results
//    of max_threads = 1.
//  * One bound per sweep: a call made from inside an item may start only
//    threads that its outermost call has not started or has already
//    released. At most the outermost max_threads items run at once,
//    nested calls included, and a nested call that finds no thread to
//    start runs its items in the caller, so it never waits on a busy
//    thread (no deadlock). A serial outer call keeps the whole sweep
//    serial.
//  * Exceptions from fn propagate to the caller (the first one wins; the
//    items not yet started are skipped).
#pragma once

#include <cstddef>
#include <functional>

namespace phisched {

/// Runs fn(0) .. fn(n-1) and returns once all have finished. At most
/// min(max_threads, n) threads run them, the caller included (0 =
/// hardware concurrency, 1 = the caller alone); a call nested in an item
/// is further bounded by the threads its outermost call left unstarted.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                  unsigned max_threads = 0);

}  // namespace phisched
