#include "cosmic/middleware.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/check.hpp"
#include "common/json.hpp"

namespace phisched::cosmic {

NodeMiddleware::NodeMiddleware(Simulator& sim,
                               std::vector<phi::Device*> devices,
                               MiddlewareConfig config)
    : sim_(sim), config_(config) {
  PHISCHED_REQUIRE(!devices.empty(), "NodeMiddleware: need at least one device");
  devices_.reserve(devices.size());
  for (phi::Device* d : devices) {
    PHISCHED_REQUIRE(d != nullptr, "NodeMiddleware: null device");
    DeviceState ds;
    ds.device = d;
    devices_.push_back(std::move(ds));
  }
}

void NodeMiddleware::attach_telemetry(obs::Recorder& recorder,
                                      const std::string& prefix) {
  obs_.rec = &recorder;
  obs_.prefix = prefix;
  obs::Registry& m = recorder.metrics();
  m.counter(prefix + ".offloads_admitted",
            [this] { return stats_.offloads_admitted; });
  m.counter(prefix + ".offloads_queued",
            [this] { return stats_.offloads_queued; });
  m.counter(prefix + ".container_kills",
            [this] { return stats_.container_kills; });
  m.counter(prefix + ".jobs_admitted",
            [this] { return stats_.jobs_admitted; });
  m.counter(prefix + ".jobs_parked", [this] { return stats_.jobs_parked; });
  obs_.admission_wait_s = &m.gauge(prefix + ".admission_wait_s");
  obs_.admission_wait_hist =
      &m.histogram(prefix + ".admission_wait_hist", 0.0, 200.0, 20);
  obs_.admission_depth = &m.series(prefix + ".admission_queue_depth");
  obs_.admission_depth->set(sim_.now(),
                            static_cast<double>(job_queue_.size()));
  // Rebuild the per-device series bindings into a fresh vector and swap it
  // in whole, so a re-registration (second attach_telemetry call) can
  // never leave note_queue_depth racing a partially rebuilt vector.
  std::vector<TimeWeighted*> depths;
  depths.reserve(devices_.size());
  for (std::size_t d = 0; d < devices_.size(); ++d) {
    TimeWeighted* depth =
        &m.series(prefix + ".mic" + std::to_string(d) + ".queue_depth");
    depth->set(sim_.now(), static_cast<double>(devices_[d].queue.size()));
    depths.push_back(depth);
  }
  obs_.queue_depth = std::move(depths);
  PHISCHED_CHECK(obs_.queue_depth.size() == devices_.size(),
                 "NodeMiddleware: attach_telemetry bound ",
                 obs_.queue_depth.size(), " series for ", devices_.size(),
                 " devices t=", sim_.now());
}

void NodeMiddleware::note_queue_depth(DeviceId d) {
  if (obs_.rec == nullptr) return;
  const auto i = static_cast<std::size_t>(d);
  // Fail loudly rather than index a stale binding: the vector must cover
  // every device whenever a recorder is attached.
  PHISCHED_CHECK(i < obs_.queue_depth.size(),
                 "NodeMiddleware: note_queue_depth(device=", d,
                 ") with only ", obs_.queue_depth.size(),
                 " bound series (attach_telemetry re-registration bug) t=",
                 sim_.now());
  obs_.queue_depth[i]->set(sim_.now(),
                           static_cast<double>(devices_[i].queue.size()));
}

void NodeMiddleware::note_admission_depth() {
  if (obs_.rec == nullptr) return;
  obs_.admission_depth->set(sim_.now(),
                            static_cast<double>(job_queue_.size()));
}

void NodeMiddleware::note_admitted(const WaitingJob& w) {
  if (obs_.rec == nullptr || w.parked_at < 0.0) return;
  const SimTime waited = sim_.now() - w.parked_at;
  obs_.admission_wait_s->add(waited);
  obs_.admission_wait_hist->add(waited);
  obs_.rec->event(sim_.now(), "job_admitted",
                  {{"node", obs_.prefix},
                   {"job", std::to_string(w.job)},
                   {"waited_s", json_number(waited)}});
}

phi::Device& NodeMiddleware::device(DeviceId d) {
  PHISCHED_REQUIRE(d >= 0 && static_cast<std::size_t>(d) < devices_.size(),
                   "NodeMiddleware: bad device id");
  return *devices_[static_cast<std::size_t>(d)].device;
}

MiB NodeMiddleware::unreserved_memory(DeviceId d) const {
  PHISCHED_REQUIRE(d >= 0 && static_cast<std::size_t>(d) < devices_.size(),
                   "NodeMiddleware: bad device id");
  const auto& ds = devices_[static_cast<std::size_t>(d)];
  return ds.device->usable_memory() - ds.reserved_mem;
}

ThreadCount NodeMiddleware::unreserved_threads(DeviceId d) const {
  PHISCHED_REQUIRE(d >= 0 && static_cast<std::size_t>(d) < devices_.size(),
                   "NodeMiddleware: bad device id");
  const auto& ds = devices_[static_cast<std::size_t>(d)];
  return ds.device->capability().hw.hw_threads() - ds.reserved_threads;
}

double NodeMiddleware::unreserved_bandwidth(DeviceId d) const {
  PHISCHED_REQUIRE(d >= 0 && static_cast<std::size_t>(d) < devices_.size(),
                   "NodeMiddleware: bad device id");
  const auto& ds = devices_[static_cast<std::size_t>(d)];
  const double budget = ds.device->mem_bw_budget();
  return budget < 0.0 ? budget : budget - ds.reserved_bw;
}

void NodeMiddleware::sync_bw_load(DeviceState& ds) {
  if (!ds.device->config().mem_bw.contention) return;
  ds.device->set_resident_bw_load(ds.reserved_bw);
}

std::vector<DeviceId> NodeMiddleware::pick_gang(int gang_size,
                                                MiB declared_per_device) const {
  PHISCHED_REQUIRE(gang_size >= 1, "pick_gang: gang size must be positive");
  if (static_cast<std::size_t>(gang_size) > devices_.size()) return {};
  std::vector<DeviceId> order(devices_.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](DeviceId a, DeviceId b) {
    return unreserved_memory(a) > unreserved_memory(b);
  });
  std::vector<DeviceId> gang;
  for (DeviceId d : order) {
    if (unreserved_memory(d) < declared_per_device) break;  // sorted: done
    gang.push_back(d);
    if (gang.size() == static_cast<std::size_t>(gang_size)) return gang;
  }
  return {};
}

bool NodeMiddleware::try_admit(WaitingJob& w) {
  std::vector<DeviceId> gang;
  if (!w.pinned.empty()) {
    PHISCHED_REQUIRE(
        w.pinned.size() == static_cast<std::size_t>(w.gang_size),
        "try_admit: pinned gang size mismatch");
    for (DeviceId d : w.pinned) {
      if (unreserved_memory(d) < w.declared_mem) return false;
    }
    gang = w.pinned;
  } else {
    gang = pick_gang(w.gang_size, w.declared_mem);
    if (gang.empty()) return false;
  }

  Reservation res;
  res.devices = gang;
  res.declared_mem = w.declared_mem;
  res.declared_threads = w.declared_threads;
  res.declared_bw = w.declared_bw;
  res.on_kill = std::move(w.on_kill);
  jobs_.emplace(w.job, std::move(res));

  for (DeviceId d : gang) {
    auto& ds = devices_[static_cast<std::size_t>(d)];
    ds.reserved_mem += w.declared_mem;
    ds.reserved_threads += w.declared_threads;
    ds.reserved_bw += w.declared_bw;
    ds.device->attach_process(
        w.job, w.base_memory,
        [this](JobId j, phi::KillReason reason) { on_device_kill(j, reason); });
    ds.device->set_resident_thread_load(ds.reserved_threads);
    sync_bw_load(ds);
  }

  stats_.jobs_admitted += 1;
  note_admitted(w);
  if (w.on_admitted) w.on_admitted();
  return true;
}

void NodeMiddleware::submit_job(JobId job, std::vector<DeviceId> pinned,
                                const JobDeclaration& decl,
                                KillCallback on_kill,
                                std::function<void()> on_admitted) {
  PHISCHED_REQUIRE(decl.gang_size >= 1,
                   "submit_job: gang size must be positive");
  PHISCHED_REQUIRE(static_cast<std::size_t>(decl.gang_size) <= devices_.size(),
                   "submit_job: gang larger than the node's device count");
  PHISCHED_REQUIRE(decl.mem_per_device > 0,
                   "submit_job: declared memory must be > 0");
  PHISCHED_REQUIRE(decl.mem_bw_mib_s >= 0.0,
                   "submit_job: declared bandwidth must be >= 0");
  PHISCHED_REQUIRE(jobs_.find(job) == jobs_.end(),
                   "submit_job: job already resident");
  WaitingJob w;
  w.job = job;
  w.pinned = std::move(pinned);
  w.gang_size = decl.gang_size;
  w.declared_mem = decl.mem_per_device;
  w.declared_threads = decl.threads;
  w.declared_bw = decl.mem_bw_mib_s;
  w.base_memory = decl.base_memory;
  w.on_kill = std::move(on_kill);
  w.on_admitted = std::move(on_admitted);
  if (!job_queue_.empty() || !try_admit(w)) {
    stats_.jobs_parked += 1;
    w.parked_at = sim_.now();
    if (obs_.rec != nullptr) {
      obs_.rec->event(sim_.now(), "job_parked",
                      {{"node", obs_.prefix},
                       {"job", std::to_string(w.job)},
                       {"declared_mib", std::to_string(w.declared_mem)},
                       {"gang", std::to_string(w.gang_size)}});
    }
    job_queue_.push_back(std::move(w));
    note_admission_depth();
  }
}

void NodeMiddleware::admit_waiting() {
  // try_admit runs user callbacks that may kill jobs and re-enter this
  // function (kill → capacity freed → admit); defer the re-entrant pass
  // so the queue is never mutated underneath an active scan.
  if (admitting_) {
    admit_again_ = true;
    return;
  }
  admitting_ = true;
  do {
    admit_again_ = false;
    while (!job_queue_.empty() && try_admit(job_queue_.front())) {
      job_queue_.pop_front();
    }
  } while (admit_again_);
  admitting_ = false;
  note_admission_depth();
}

bool NodeMiddleware::fits_now(const DeviceState& ds, ThreadCount threads) const {
  if (!config_.serialize_offloads) return true;
  const ThreadCount hw = ds.device->capability().hw.hw_threads();
  // Heterogeneous fleets can see an offload wider than the card (e.g. a
  // 240-thread job on a 228-thread 3120A). It can never literally fit,
  // so clamp the width: it waits for the device to drain, then runs
  // alone under the oversubscription penalty — instead of queueing
  // forever. No-op on homogeneous fleets (declared widths never exceed
  // the card there).
  return ds.device->active_thread_demand() + std::min(threads, hw) <= hw;
}

bool NodeMiddleware::container_violation(JobId job, const Reservation& res,
                                         MiB extra, int device_index) {
  if (!config_.enforce_containers) return false;
  const DeviceId d = res.devices[static_cast<std::size_t>(device_index)];
  auto& ds = devices_[static_cast<std::size_t>(d)];
  const MiB prospective = ds.device->process_memory(job) + extra;
  if (prospective <= res.declared_mem) return false;
  stats_.container_kills += 1;
  if (obs_.rec != nullptr) {
    obs_.rec->event(sim_.now(), "container_kill",
                    {{"node", obs_.prefix},
                     {"job", std::to_string(job)},
                     {"prospective_mib", std::to_string(prospective)},
                     {"declared_mib", std::to_string(res.declared_mem)}});
  }
  ds.device->kill_process(job, phi::KillReason::kContainerLimit);
  return true;
}

void NodeMiddleware::request_offload(JobId job, ThreadCount threads,
                                     MiB memory, SimTime duration,
                                     OffloadCallback on_complete,
                                     std::function<void()> on_start,
                                     int device_index) {
  auto it = jobs_.find(job);
  PHISCHED_REQUIRE(it != jobs_.end(), "request_offload: unknown job");
  PHISCHED_REQUIRE(
      device_index >= 0 &&
          static_cast<std::size_t>(device_index) < it->second.devices.size(),
      "request_offload: device index outside the job's gang");

  // Per-device link contention: the input working set crosses the target
  // card's fair-share PCIe link before the offload can be considered for
  // device admission, so concurrent containers slow each other down. With
  // the link off (the calibrated default) transfer cost is part of the
  // measured offload durations. The link drops the transfer (callback
  // never fires) if the job is killed while its bytes are in flight.
  const DeviceId target =
      it->second.devices[static_cast<std::size_t>(device_index)];
  phi::PcieLink& link =
      devices_[static_cast<std::size_t>(target)].device->pcie_link();
  if (link.enabled() && memory > 0) {
    link.start_transfer(
        job, memory, phi::XferDir::kIn,
        [this, job, threads, memory, duration, device_index,
         on_complete = std::move(on_complete),
         on_start = std::move(on_start)]() mutable {
          // Killed jobs' transfers are cancelled at the link, but stay
          // defensive against a kill landing in the same timestep.
          if (jobs_.find(job) == jobs_.end()) return;
          admit_offload(job, threads, memory, duration,
                        std::move(on_complete), std::move(on_start),
                        device_index);
        });
    return;
  }
  admit_offload(job, threads, memory, duration, std::move(on_complete),
                std::move(on_start), device_index);
}

void NodeMiddleware::admit_offload(JobId job, ThreadCount threads, MiB memory,
                                   SimTime duration,
                                   OffloadCallback on_complete,
                                   std::function<void()> on_start,
                                   int device_index) {
  auto it = jobs_.find(job);
  PHISCHED_CHECK(it != jobs_.end(), "NodeMiddleware: admit_offload for "
                 "unknown job=", job, " t=", sim_.now());
  const Reservation& res = it->second;

  if (container_violation(job, res, memory, device_index)) return;

  const DeviceId d = res.devices[static_cast<std::size_t>(device_index)];
  PendingOffload pending;
  pending.job = job;
  pending.threads = threads;
  pending.memory = memory;
  pending.duration = duration;
  pending.on_complete = std::move(on_complete);
  pending.on_start = std::move(on_start);

  auto& ds = devices_[static_cast<std::size_t>(d)];
  // Under strict FIFO, a non-empty queue means this offload must line up
  // behind it even if it would fit right now.
  const bool must_queue =
      config_.drain == DrainPolicy::kFifoStrict && !ds.queue.empty();
  if (!must_queue && fits_now(ds, threads)) {
    start_now(d, std::move(pending), /*was_queued=*/false);
  } else {
    stats_.offloads_queued += 1;
    ds.queue.push_back(std::move(pending));
    note_queue_depth(d);
  }
}

void NodeMiddleware::start_now(DeviceId d, PendingOffload pending,
                               bool was_queued) {
  auto& ds = devices_[static_cast<std::size_t>(d)];
  stats_.offloads_admitted += 1;
  const SimTime duration =
      pending.duration +
      (was_queued ? config_.queued_resume_overhead_s : 0.0);
  if (pending.on_start) pending.on_start();
  auto on_complete = std::move(pending.on_complete);
  const JobId job = pending.job;
  const MiB memory = pending.memory;
  ds.device->start_offload(
      job, pending.threads, memory, duration,
      [this, d, job, memory, cb = std::move(on_complete)]() {
        // Freeing threads may let queued offloads run; admit them before
        // the job continues so queue order stays FIFO-biased.
        drain_queue(d);
        // Link contention: the results cross back over the card's PCIe
        // link before the job sees the completion. A kill while the
        // output is in flight drops the transfer and the callback.
        phi::PcieLink& link =
            devices_[static_cast<std::size_t>(d)].device->pcie_link();
        // Round up: a small working set with a nonzero output fraction
        // must still move at least 1 MiB, never a 0-MiB transfer that
        // pays latency and inflates transfers_out/queue-depth telemetry.
        const MiB out_mib =
            link.enabled()
                ? static_cast<MiB>(std::ceil(
                      static_cast<double>(memory) *
                      link.config().output_fraction))
                : 0;
        if (out_mib > 0 && jobs_.find(job) != jobs_.end()) {
          link.start_transfer(job, out_mib, phi::XferDir::kOut,
                              [cb]() { if (cb) cb(); });
          return;
        }
        if (cb) cb();
      });
}

void NodeMiddleware::drain_queue(DeviceId d) {
  auto& ds = devices_[static_cast<std::size_t>(d)];
  if (config_.drain == DrainPolicy::kFifoStrict) {
    while (!ds.queue.empty() && fits_now(ds, ds.queue.front().threads)) {
      PendingOffload pending = std::move(ds.queue.front());
      ds.queue.pop_front();
      note_queue_depth(d);
      start_now(d, std::move(pending), /*was_queued=*/true);
    }
    return;
  }
  // kFifoSkip: first-fit scan in FIFO order — later offloads may overtake
  // a wide head that does not fit yet.
  for (auto it = ds.queue.begin(); it != ds.queue.end();) {
    if (fits_now(ds, it->threads)) {
      PendingOffload pending = std::move(*it);
      it = ds.queue.erase(it);
      note_queue_depth(d);
      start_now(d, std::move(pending), /*was_queued=*/true);
      // start_now may recurse into drain_queue; restart the scan.
      it = ds.queue.begin();
    } else {
      ++it;
    }
  }
}

void NodeMiddleware::release_reservation(JobId job, const Reservation& res) {
  for (DeviceId d : res.devices) {
    auto& ds = devices_[static_cast<std::size_t>(d)];
    ds.queue.erase(std::remove_if(ds.queue.begin(), ds.queue.end(),
                                  [job](const PendingOffload& p) {
                                    return p.job == job;
                                  }),
                   ds.queue.end());
    note_queue_depth(d);
    ds.reserved_mem -= res.declared_mem;
    ds.reserved_threads -= res.declared_threads;
    ds.reserved_bw -= res.declared_bw;
    PHISCHED_CHECK(ds.reserved_mem >= 0,
                   "NodeMiddleware: reservation ledger underflow on device=",
                   d, " (reserved=", ds.reserved_mem, " MiB) releasing job=",
                   job, " t=", sim_.now());
    PHISCHED_CHECK(ds.reserved_bw >= -1e-9,
                   "NodeMiddleware: bandwidth ledger underflow on device=", d,
                   " (reserved=", ds.reserved_bw, " MiB/s) releasing job=",
                   job, " t=", sim_.now());
    if (ds.reserved_bw < 0.0) ds.reserved_bw = 0.0;
    ds.device->set_resident_thread_load(ds.reserved_threads);
    sync_bw_load(ds);
  }
}

void NodeMiddleware::finish_job(JobId job) {
  auto it = jobs_.find(job);
  PHISCHED_REQUIRE(it != jobs_.end(), "finish_job: unknown job");
  const Reservation res = std::move(it->second);
  jobs_.erase(it);
  for (DeviceId d : res.devices) {
    devices_[static_cast<std::size_t>(d)].device->detach_process(job);
  }
  release_reservation(job, res);
  for (DeviceId d : res.devices) drain_queue(d);
  admit_waiting();
}

bool NodeMiddleware::job_known(JobId job) const {
  return jobs_.find(job) != jobs_.end();
}

std::size_t NodeMiddleware::jobs_on_device(DeviceId d) const {
  PHISCHED_REQUIRE(d >= 0 && static_cast<std::size_t>(d) < devices_.size(),
                   "NodeMiddleware: bad device id");
  std::size_t n = 0;
  for (const auto& [_, res] : jobs_) {
    if (std::find(res.devices.begin(), res.devices.end(), d) !=
        res.devices.end()) {
      ++n;
    }
  }
  return n;
}

std::vector<DeviceId> NodeMiddleware::gang_of(JobId job) const {
  auto it = jobs_.find(job);
  return it == jobs_.end() ? std::vector<DeviceId>{} : it->second.devices;
}

std::size_t NodeMiddleware::queued_offloads(DeviceId d) const {
  PHISCHED_REQUIRE(d >= 0 && static_cast<std::size_t>(d) < devices_.size(),
                   "NodeMiddleware: bad device id");
  return devices_[static_cast<std::size_t>(d)].queue.size();
}

void NodeMiddleware::on_device_kill(JobId job, phi::KillReason reason) {
  auto it = jobs_.find(job);
  PHISCHED_CHECK(it != jobs_.end(),
                 "NodeMiddleware: device kill (", phi::kill_reason_name(reason),
                 ") for job=", job, " COSMIC doesn't know t=", sim_.now());
  const Reservation res = std::move(it->second);
  jobs_.erase(it);

  // The reporting device already removed its process; silently tear down
  // the job's processes on sibling gang members.
  for (DeviceId d : res.devices) {
    auto& ds = devices_[static_cast<std::size_t>(d)];
    if (ds.device->has_process(job)) {
      ds.device->kill_process(job, reason, /*invoke_callback=*/false);
    }
  }
  release_reservation(job, res);
  for (DeviceId d : res.devices) drain_queue(d);
  admit_waiting();
  if (res.on_kill) res.on_kill(job, reason);
}

}  // namespace phisched::cosmic
