#include "cluster/jobrun.hpp"

#include "common/check.hpp"

namespace phisched::cluster {

JobRun::JobRun(Simulator& sim, workload::JobSpec spec,
               cosmic::NodeMiddleware& middleware,
               std::vector<DeviceId> devices, DoneFn done)
    : sim_(sim),
      spec_(std::move(spec)),
      middleware_(middleware),
      devices_(std::move(devices)),
      done_(std::move(done)) {
  PHISCHED_REQUIRE(done_ != nullptr, "JobRun: null completion callback");
  PHISCHED_REQUIRE(devices_.empty() ||
                       devices_.size() ==
                           static_cast<std::size_t>(spec_.devices_req),
                   "JobRun: pinned gang size must match devices_req");
}

void JobRun::arrive() {
  PHISCHED_REQUIRE(!arrived_, "JobRun: arrived twice");
  arrived_ = true;
  cosmic::JobDeclaration decl;
  decl.gang_size = spec_.devices_req;
  decl.mem_per_device = spec_.mem_req_mib;
  decl.threads = spec_.threads_req;
  decl.base_memory = spec_.base_memory_mib;
  decl.mem_bw_mib_s = spec_.mem_bw_mib_s;
  middleware_.submit_job(
      spec_.id, devices_, decl,
      [this](JobId, phi::KillReason) { on_killed(); },
      [this] {
        admitted_ = true;
        advance();
      });
}

void JobRun::advance() {
  if (killed_) return;
  const auto& segments = spec_.profile.segments();
  if (next_segment_ >= segments.size()) {
    // Implicit final barrier: the job ends only once its outstanding
    // async offloads have drained.
    if (outstanding_async_ > 0) {
      waiting_for_async_ = true;
      return;
    }
    finished_ = true;
    middleware_.finish_job(spec_.id);
    done_(spec_, true);
    return;
  }
  const workload::Segment& seg = segments[next_segment_++];
  switch (seg.kind) {
    case workload::SegmentKind::kHost:
      host_timer_ = sim_.schedule_in(seg.duration, [this] { advance(); });
      return;
    case workload::SegmentKind::kSync:
      if (outstanding_async_ > 0) {
        waiting_for_async_ = true;
        return;
      }
      advance();
      return;
    case workload::SegmentKind::kOffload:
      if (seg.async) {
        ++outstanding_async_;
        middleware_.request_offload(
            spec_.id, seg.threads, seg.memory_mib, seg.duration,
            [this] { on_async_complete(); },
            /*on_start=*/nullptr, seg.device_index);
        if (!killed_) advance();  // the host continues immediately
        return;
      }
      middleware_.request_offload(spec_.id, seg.threads, seg.memory_mib,
                                  seg.duration, [this] { advance(); },
                                  /*on_start=*/nullptr, seg.device_index);
      return;
  }
}

void JobRun::on_async_complete() {
  if (killed_) return;
  PHISCHED_CHECK(outstanding_async_ > 0, "async offload accounting underflow");
  --outstanding_async_;
  if (waiting_for_async_ && outstanding_async_ == 0) {
    waiting_for_async_ = false;
    advance();
  }
}

void JobRun::on_killed() {
  PHISCHED_CHECK(!finished_, "JobRun: killed after finishing");
  killed_ = true;
  host_timer_.cancel();
  done_(spec_, false);
}

}  // namespace phisched::cluster
