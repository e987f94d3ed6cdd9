// Layer probes: direct calls into one layer's public function on the
// workload's own jobs and node shape, each call timed on its own.
#pragma once

#include <map>
#include <string>

#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Per-call timings keyed by metric stem: "classad.match_ns",
/// "classad.job_ad_us", "cluster.machine_ad_us", "knapsack.dp1d_us" and
/// "knapsack.dp2d_pack_ms". Each probe is also recorded as one span
/// under `root`.
[[nodiscard]] std::map<std::string, Distribution> run_probes(
    const Workload& w, Tracer& tracer, std::int64_t root);

}  // namespace perfbench
