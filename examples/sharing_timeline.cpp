// Reproduces the intuition of the paper's Figs. 2 and 3 interactively:
// two offload jobs share one Xeon Phi, and the ASCII Gantt chart shows
// offloads filling each other's host gaps (full-width jobs) or genuinely
// overlapping (partial-width jobs).
//
//   ./sharing_timeline [threads_per_offload]   (default 120; try 240)
#include <cstdio>
#include <memory>

#include "cosmic/middleware.hpp"
#include "example_args.hpp"
#include "phi/device.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"
#include "workload/profile.hpp"

using namespace phisched;
using workload::OffloadProfile;
using workload::Segment;

namespace {

/// Drives one job's profile through COSMIC, recording offload intervals.
class TimelineJob {
 public:
  TimelineJob(Simulator& sim, cosmic::NodeMiddleware& mw, JobId id,
              OffloadProfile profile, IntervalTrace& trace)
      : sim_(sim), mw_(mw), id_(id), profile_(std::move(profile)),
        // std::string lvalue + rvalue picks the append overload; the
        // `"J" + std::to_string(...)` spelling trips GCC 12's bogus
        // -Wrestrict diagnosis of the insert path (GCC PR 105651).
        trace_(trace), lane_(std::string("J") + std::to_string(id)) {}

  void start() {
    mw_.submit_job(id_, {}, {.mem_per_device = 2000,
                             .threads = profile_.max_threads(),
                             .base_memory = 16},
                   nullptr, [this] { advance(); });
  }

  [[nodiscard]] bool finished() const { return finished_; }
  [[nodiscard]] SimTime finish_time() const { return finish_time_; }

 private:
  void advance() {
    const auto& segments = profile_.segments();
    if (next_ >= segments.size()) {
      finished_ = true;
      finish_time_ = sim_.now();
      mw_.finish_job(id_);
      return;
    }
    const Segment& seg = segments[next_++];
    if (seg.kind == workload::SegmentKind::kHost) {
      trace_.record(lane_, sim_.now(), sim_.now() + seg.duration, "host", '.');
      sim_.schedule_in(seg.duration, [this] { advance(); });
    } else {
      // Record the actual execution window: on_start fires at admission.
      auto started_at = std::make_shared<SimTime>(0.0);
      mw_.request_offload(
          id_, seg.threads, seg.memory_mib, seg.duration,
          [this, started_at] {
            trace_.record(lane_, *started_at, sim_.now(), "offload", '#');
            advance();
          },
          [this, started_at] { *started_at = sim_.now(); });
    }
  }

  Simulator& sim_;
  cosmic::NodeMiddleware& mw_;
  JobId id_;
  OffloadProfile profile_;
  IntervalTrace& trace_;
  std::string lane_;
  std::size_t next_ = 0;
  bool finished_ = false;
  SimTime finish_time_ = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  const examples::PositionalArgs args(
      argc, argv, "sharing_timeline [threads_per_offload]");
  const auto threads = static_cast<ThreadCount>(
      args.integer(1, "threads_per_offload", 120, 1, 240));

  // The two jobs of Figs. 2/3: J1 has two offloads, J2 has three.
  const OffloadProfile p1({Segment::offload(10.0, threads, 1000),
                           Segment::host(8.0),
                           Segment::offload(10.0, threads, 1000)});
  const OffloadProfile p2({Segment::offload(6.0, threads, 1000),
                           Segment::host(5.0),
                           Segment::offload(6.0, threads, 1000),
                           Segment::host(5.0),
                           Segment::offload(6.0, threads, 1000)});

  Simulator sim;
  phi::DeviceConfig dc;
  dc.affinity = phi::AffinityPolicy::kManagedCompact;
  dc.idle_spin_exponent = 0.0;  // pure-timing illustration, as in the paper
  phi::Device device(sim, dc, Rng(1));
  cosmic::MiddlewareConfig mc;
  mc.queued_resume_overhead_s = 0.0;
  cosmic::NodeMiddleware mw(sim, {&device}, mc);

  IntervalTrace trace;
  TimelineJob j1(sim, mw, 1, p1, trace);
  TimelineJob j2(sim, mw, 2, p2, trace);
  j1.start();
  j2.start();
  sim.run();

  const SimTime concurrent = std::max(j1.finish_time(), j2.finish_time());
  const SimTime sequential = p1.total_duration() + p2.total_duration();

  std::printf("Two offload jobs sharing one Xeon Phi, %d threads per offload\n",
              threads);
  std::printf("('#' = offload on the coprocessor, '.' = host section)\n\n");
  std::printf("%s\n", trace.ascii(72).c_str());
  std::printf("sequential makespan (no sharing): %5.1f s\n", sequential);
  std::printf("concurrent makespan (sharing):    %5.1f s  -> %.0f%% reduction\n",
              concurrent, 100.0 * (1.0 - concurrent / sequential));
  if (2 * threads <= device.capability().hw.hw_threads()) {
    std::printf("\nOffloads OVERLAP: 2 x %d threads fit within 240 hardware "
                "threads (Fig. 3).\n", threads);
  } else {
    std::printf("\nOffloads SERIALIZE: 2 x %d threads would oversubscribe 240 "
                "hardware threads;\nCOSMIC interleaves them into each other's "
                "host gaps (Fig. 2).\n", threads);
  }
  return 0;
}
