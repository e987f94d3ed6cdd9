// Figs. 2 and 3: coprocessor usage of two offload jobs run sequentially
// vs concurrently.
//
// Fig. 2: both jobs' offloads use all 240 hardware threads — sharing wins
// only by filling the other job's host gaps (offloads serialize).
// Fig. 3: both jobs use 120 threads — offloads genuinely overlap and the
// concurrent makespan drops well below the sequential sum.
#include <cstdio>
#include <map>

#include "bench_json.hpp"
#include "cosmic/middleware.hpp"
#include "phi/device.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"
#include "workload/profile.hpp"

namespace {

using namespace phisched;
using workload::OffloadProfile;
using workload::Segment;

/// Runs `profiles` concurrently on one COSMIC-managed device; returns the
/// makespan and fills `trace` with per-job offload intervals.
SimTime run_shared(const std::vector<OffloadProfile>& profiles,
                   IntervalTrace* trace, std::uint64_t seed = 1) {
  Simulator sim;
  phi::DeviceConfig dc;
  dc.affinity = phi::AffinityPolicy::kManagedCompact;
  dc.idle_spin_exponent = 0.0;  // the figures illustrate pure timing
  phi::Device device(sim, dc, Rng(seed));
  cosmic::MiddlewareConfig mc;
  mc.queued_resume_overhead_s = 0.0;
  cosmic::NodeMiddleware mw(sim, {&device}, mc);

  SimTime makespan = 0.0;
  struct Driver {
    Simulator* sim = nullptr;
    cosmic::NodeMiddleware* mw = nullptr;
    IntervalTrace* trace = nullptr;
    JobId job = 0;
    std::string lane;
    const OffloadProfile* profile = nullptr;
    std::size_t next = 0;
    SimTime offload_requested_at = 0.0;
    SimTime* makespan = nullptr;

    void advance() {
      const auto& segments = profile->segments();
      if (next >= segments.size()) {
        mw->finish_job(job);
        *makespan = std::max(*makespan, sim->now());
        return;
      }
      const Segment& seg = segments[next++];
      if (seg.kind == workload::SegmentKind::kHost) {
        sim->schedule_in(seg.duration, [this] { advance(); });
      } else {
        auto started_at = std::make_shared<SimTime>(0.0);
        mw->request_offload(
            job, seg.threads, seg.memory_mib, seg.duration,
            [this, started_at] {
              if (trace != nullptr) {
                trace->record(lane, *started_at, sim->now(), "offload", '#');
              }
              advance();
            },
            [this, started_at] { *started_at = sim->now(); });
      }
    }
  };

  std::vector<std::unique_ptr<Driver>> drivers;
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    auto d = std::make_unique<Driver>();
    d->sim = &sim;
    d->mw = &mw;
    d->trace = trace;
    d->job = i + 1;
    // GCC 12 mis-diagnoses this fully-inlined string build as overlapping
    // memcpy regardless of spelling (GCC PR 105651); silence just that.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wrestrict"
#endif
    d->lane = "J" + std::to_string(i + 1);
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
    d->profile = &profiles[i];
    d->makespan = &makespan;
    drivers.push_back(std::move(d));
  }
  for (std::size_t i = 0; i < drivers.size(); ++i) {
    auto& d = drivers[i];
    const MiB declared = 16 + profiles[i].max_offload_memory();
    mw.submit_job(d->job, {}, {.mem_per_device = declared,
                               .threads = profiles[i].max_threads(),
                               .base_memory = 16},
                  nullptr, [raw = d.get()] { raw->advance(); });
  }
  sim.run();
  return makespan;
}

void scenario(const char* title, const OffloadProfile& a,
              const OffloadProfile& b) {
  const SimTime sequential = a.total_duration() + b.total_duration();
  IntervalTrace trace;
  const SimTime shared = run_shared({a, b}, &trace);
  std::printf("--- %s ---\n", title);
  std::printf("%s", trace.ascii(70).c_str());
  std::printf("sequential makespan: %6.1f s\n", sequential);
  std::printf("concurrent makespan: %6.1f s  (%.0f%% reduction)\n\n", shared,
              (1.0 - shared / sequential) * 100.0);
}

}  // namespace

int main(int argc, char** argv) {
  // Fig. 2: maximal-resource jobs — offloads serialize, gaps still help.
  const OffloadProfile j1({Segment::offload(10.0, 240, 1000),
                           Segment::host(8.0),
                           Segment::offload(10.0, 240, 1000)});
  const OffloadProfile j2({Segment::offload(6.0, 240, 1000),
                           Segment::host(5.0),
                           Segment::offload(6.0, 240, 1000),
                           Segment::host(5.0),
                           Segment::offload(6.0, 240, 1000)});

  // Fig. 3: partial-resource jobs — offloads overlap outright.
  const OffloadProfile j3({Segment::offload(10.0, 120, 1000),
                           Segment::host(8.0),
                           Segment::offload(10.0, 120, 1000)});
  const OffloadProfile j4({Segment::offload(6.0, 120, 1000),
                           Segment::host(5.0),
                           Segment::offload(6.0, 120, 1000),
                           Segment::host(5.0),
                           Segment::offload(6.0, 120, 1000)});

  if (phisched::bench::run_json_mode(
          argc, argv, "fig2_fig3", [&](std::uint64_t seed) {
            std::map<std::string, double> m;
            m["fig2.sequential_makespan"] =
                j1.total_duration() + j2.total_duration();
            m["fig2.concurrent_makespan"] =
                run_shared({j1, j2}, nullptr, seed);
            m["fig3.sequential_makespan"] =
                j3.total_duration() + j4.total_duration();
            m["fig3.concurrent_makespan"] =
                run_shared({j3, j4}, nullptr, seed);
            return m;
          })) {
    return 0;
  }

  std::printf("============================================================\n");
  std::printf("Figs. 2 & 3: benefits of sharing one coprocessor\n");
  std::printf("============================================================\n\n");

  scenario("Fig. 2: two jobs using ALL 240 threads", j1, j2);
  scenario("Fig. 3: two jobs using 120 of 240 threads", j3, j4);

  std::printf(
      "Partial-width jobs overlap their offloads without oversubscription,\n"
      "so the concurrent makespan improves on Fig. 2's gap-filling alone.\n");
  return 0;
}
