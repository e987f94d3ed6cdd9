// Job execution state machine: walks a job's host/offload profile on a
// node, issuing offload requests through the node middleware. This models
// the user process the Condor starter spawns plus its COI counterpart on
// the coprocessor.
#pragma once

#include <functional>
#include <vector>

#include "common/types.hpp"
#include "cosmic/middleware.hpp"
#include "sim/simulator.hpp"
#include "workload/jobspec.hpp"

namespace phisched::cluster {

class JobRun {
 public:
  /// success=false means the job was killed (OOM or container violation).
  using DoneFn = std::function<void(const workload::JobSpec&, bool success)>;

  /// `devices`: pin the job to specific coprocessors (the add-on's
  /// decision or the exclusive policy's claim; size must equal the spec's
  /// devices_req); empty lets COSMIC pick/queue the gang.
  JobRun(Simulator& sim, workload::JobSpec spec,
         cosmic::NodeMiddleware& middleware, std::vector<DeviceId> devices,
         DoneFn done);

  JobRun(const JobRun&) = delete;
  JobRun& operator=(const JobRun&) = delete;

  /// The job arrives at the node (after the shadow/starter latency):
  /// submits it to COSMIC admission; the profile starts executing once
  /// the node middleware admits it.
  void arrive();

  [[nodiscard]] bool admitted() const { return admitted_; }
  [[nodiscard]] bool killed() const { return killed_; }
  [[nodiscard]] bool finished() const { return finished_; }
  /// True once the run ended and nothing can call it any more: its host
  /// timer is spent or cancelled, the middleware holds no reservation
  /// for it, and a finished run waits on no async offload (a kill drops
  /// the killed job's offloads at the device and link). Only such a run
  /// may be freed while its simulator runs on.
  [[nodiscard]] bool quiescent() const;
  [[nodiscard]] const workload::JobSpec& spec() const { return spec_; }

 private:
  void advance();
  void on_async_complete();
  void on_killed();

  Simulator& sim_;
  workload::JobSpec spec_;
  cosmic::NodeMiddleware& middleware_;
  std::vector<DeviceId> devices_;
  DoneFn done_;
  std::size_t next_segment_ = 0;
  int outstanding_async_ = 0;
  bool waiting_for_async_ = false;
  EventHandle host_timer_;
  bool arrived_ = false;
  bool admitted_ = false;
  bool killed_ = false;
  bool finished_ = false;
};

}  // namespace phisched::cluster
