// Machine-readable mode for the table/figure harnesses.
//
// Each harness keeps its human-readable stdout report as the default and
// gains a `--json` mode: a seed sweep (parallel_for, bit-identical to
// serial) whose per-seed metric maps are written to BENCH_<name>.json via
// obs::bench_report_json.
//
//   int main(int argc, char** argv) {
//     if (phisched::bench::run_json_mode(argc, argv, "fig9", per_seed)) {
//       return 0;
//     }
//     ... existing printed report ...
//   }
//
// Flags (only read in --json mode):
//   --json [PATH]     enable; write to PATH (default BENCH_<name>.json)
//   --seeds N         seeds per sweep (default 5; 1 to 1,000,000)
//   --seed-base N     first seed (default 42; 0 to INT64_MAX)
//   --threads N       cap the sweep's threads, nested sweeps included
//                     (0 = hardware, at most 1024); BENCH JSON reports it
//                     as threads_used
//   --serial          shorthand for --threads 1
// Each number is read by read_int; a value outside its range exits 2.
#pragma once

#include <string>

#include "obs/seedsweep.hpp"

namespace phisched::bench {

/// Returns false (doing nothing) unless --json is present; otherwise runs
/// the sweep, writes the report file, prints its path, and returns true.
bool run_json_mode(int argc, char** argv, const std::string& name,
                   const obs::SeedFn& run_seed);

}  // namespace phisched::bench
