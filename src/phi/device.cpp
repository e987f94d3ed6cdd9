#include "phi/device.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/check.hpp"

namespace phisched::phi {

const char* kill_reason_name(KillReason reason) {
  switch (reason) {
    case KillReason::kOom: return "oom";
    case KillReason::kContainerLimit: return "container-limit";
    case KillReason::kAdmin: return "admin";
  }
  return "?";
}

Device::Device(Simulator& sim, DeviceConfig config, Rng rng, std::string name,
               DeviceCapability capability)
    : sim_(sim),
      config_(config),
      capability_(capability),
      name_(std::move(name)),
      rng_(rng),
      cores_(capability.hw.cores, capability.hw.threads_per_core,
             rng.child("coremap")),
      pcie_link_(sim, config.pcie, name_ + ".pcie") {
  PHISCHED_REQUIRE(config_.oversub_exponent >= 1.0,
                   "Device: oversubscription exponent must be >= 1");
  PHISCHED_REQUIRE(config_.unmanaged_overlap_penalty >= 0.0 &&
                       config_.unmanaged_overlap_penalty < 1.0,
                   "Device: overlap penalty must be in [0,1)");
  PHISCHED_REQUIRE(config_.mem_bw.saturation > 0.0 &&
                       config_.mem_bw.saturation <= 1.0,
                   "Device: mem_bw saturation must be in (0,1]");
  PHISCHED_REQUIRE(config_.mem_bw.exponent >= 0.0,
                   "Device: mem_bw exponent must be >= 0");
  busy_core_time_.reset(sim_.now(), 0.0);
  last_settle_ = sim_.now();
}

void Device::attach_process(JobId job, MiB base_memory, KillCallback on_kill) {
  PHISCHED_REQUIRE(base_memory >= 0, "attach_process: negative memory");
  PHISCHED_REQUIRE(!has_process(job), "attach_process: job already resident");
  Process p;
  p.base_memory = base_memory;
  p.on_kill = std::move(on_kill);
  procs_.emplace(job, std::move(p));
  memory_used_ += base_memory;
  note_container(job);
  check_oom();
}

void Device::detach_process(JobId job) {
  auto it = procs_.find(job);
  PHISCHED_REQUIRE(it != procs_.end(), "detach_process: no such process");
  PHISCHED_REQUIRE(it->second.running_offloads == 0,
                   "detach_process: offloads still running");
  memory_used_ -= it->second.base_memory + it->second.offload_memory;
  PHISCHED_CHECK(memory_used_ >= 0, "Device ", name_,
                 ": memory accounting underflow detaching job=", job,
                 " (used=", memory_used_, " MiB) t=", sim_.now());
  procs_.erase(it);
  note_container(job);
}

void Device::kill_process(JobId job, KillReason reason, bool invoke_callback) {
  PHISCHED_REQUIRE(has_process(job), "kill_process: no such process");
  do_kill(job, reason, invoke_callback);
}

bool Device::has_process(JobId job) const {
  return procs_.find(job) != procs_.end();
}

MiB Device::process_memory(JobId job) const {
  auto it = procs_.find(job);
  PHISCHED_REQUIRE(it != procs_.end(), "process_memory: no such process");
  return it->second.base_memory + it->second.offload_memory;
}

void Device::attach_telemetry(obs::Recorder& recorder,
                              const std::string& prefix) {
  obs_.rec = &recorder;
  obs_.prefix = prefix;
  obs::Registry& m = recorder.metrics();
  m.counter(prefix + ".oversub_episodes",
            [this] { return stats_.oversub_episodes; });
  m.counter(prefix + ".oom_kills", [this] { return stats_.oom_kills; });
  m.counter(prefix + ".container_kills",
            [this] { return stats_.container_kills; });
  m.counter(prefix + ".admin_kills", [this] { return stats_.admin_kills; });
  m.counter(prefix + ".offloads_started",
            [this] { return stats_.offloads_started; });
  m.counter(prefix + ".offloads_completed",
            [this] { return stats_.offloads_completed; });
  obs_.speed = &m.series(prefix + ".speed");
  obs_.busy_cores = &m.series(prefix + ".busy_cores");
  obs_.speed_seconds = &m.time_histogram(prefix + ".speed_seconds", 0.0, 1.0, 10);
  obs_.speed->set(sim_.now(), speed_);
  obs_.busy_cores->set(sim_.now(), static_cast<double>(cores_.busy_cores()));
  obs_.speed_seconds->set(sim_.now(), speed_);
  for (const auto& [job, _] : procs_) note_container(job);
  if (config_.mem_bw.contention) {
    obs_.bw_demand = &m.series(prefix + ".mem_bw_demand");
    obs_.bw_demand->set(sim_.now(), resident_bw_load_);
  }
  if (pcie_link_.enabled()) {
    pcie_link_.attach_telemetry(recorder, prefix + ".pcie");
  }
}

void Device::note_container(JobId job) {
  if (obs_.rec == nullptr) return;
  const auto it = procs_.find(job);
  const double resident_mb =
      it == procs_.end()
          ? 0.0
          : static_cast<double>(it->second.base_memory +
                                it->second.offload_memory);
  const double threads =
      it == procs_.end() ? 0.0
                         : static_cast<double>(it->second.active_threads);
  obs::Registry& m = obs_.rec->metrics();
  const std::string base = obs_.prefix + ".container" + std::to_string(job);
  m.series(base + ".resident_mb").set(sim_.now(), resident_mb);
  m.series(base + ".threads").set(sim_.now(), threads);
}

void Device::finalize_telemetry_into(obs::Snapshot& snap) const {
  if (obs_.rec == nullptr || !oversub_active_) return;
  snap.events.push_back(
      obs::Event{sim_.now(), "oversub_end",
                 {{"device", obs_.prefix}, {"at_run_end", "1"}}});
}

OffloadId Device::start_offload(JobId job, ThreadCount threads, MiB memory,
                                SimTime duration, OffloadCallback on_complete) {
  PHISCHED_REQUIRE(threads > 0, "start_offload: threads must be positive");
  PHISCHED_REQUIRE(memory >= 0, "start_offload: negative memory");
  PHISCHED_REQUIRE(duration >= 0.0, "start_offload: negative duration");
  auto pit = procs_.find(job);
  PHISCHED_REQUIRE(pit != procs_.end(), "start_offload: job has no process");

  settle();

  const OffloadId id = next_offload_id_++;
  Offload off;
  off.id = id;
  off.job = job;
  off.threads = threads;
  off.memory = memory;
  off.remaining_work = duration;
  off.on_complete = std::move(on_complete);
  off.alloc = cores_.allocate(threads, config_.affinity);
  offloads_.emplace(id, std::move(off));

  pit->second.running_offloads += 1;
  pit->second.offload_memory += memory;
  pit->second.active_threads += threads;
  memory_used_ += memory;
  stats_.offloads_started += 1;
  note_container(job);

  reconcile();
  check_oom();
  return id;
}

ThreadCount Device::active_thread_demand() const {
  ThreadCount t = 0;
  for (const auto& [_, off] : offloads_) t += off.threads;
  return t;
}

double Device::core_utilization(SimTime until) const {
  return busy_core_time_.mean_until(until) /
         static_cast<double>(capability().hw.cores);
}

double Device::energy_joules(SimTime until) const {
  PHISCHED_REQUIRE(until >= 0.0, "energy_joules: negative horizon");
  const double busy_core_seconds =
      busy_core_time_.mean_until(until) * until;
  const double card_floor_watts =
      config_.base_watts +
      static_cast<double>(capability().hw.cores) * config_.idle_core_watts;
  return card_floor_watts * until +
         (config_.active_core_watts - config_.idle_core_watts) *
             busy_core_seconds;
}

void Device::settle() {
  const SimTime now = sim_.now();
  const SimTime elapsed = now - last_settle_;
  PHISCHED_DCHECK(elapsed >= 0.0, "Device ", name_,
                  ": settle moved backwards (now=", now,
                  " last_settle=", last_settle_, ")");
  if (elapsed > 0.0) {
    for (auto& [_, off] : offloads_) {
      off.remaining_work = std::max(0.0, off.remaining_work - elapsed * speed_);
    }
  }
  busy_core_time_.advance_to(now);
  last_settle_ = now;
}

double Device::compute_speed() const {
  const ThreadCount demand = active_thread_demand();
  const ThreadCount limit = capability().hw.hw_threads();
  double speed = 1.0;
  if (demand > limit) {
    speed = std::pow(static_cast<double>(limit) / static_cast<double>(demand),
                     config_.oversub_exponent);
  }
  // Conflicting-affinity loss only exists when nothing manages placement;
  // under managed-compact, overlap can only mean thread oversubscription,
  // which the exponent term already prices.
  if (config_.affinity == AffinityPolicy::kUnmanagedScatter &&
      cores_.has_overlap()) {
    speed *= 1.0 - config_.unmanaged_overlap_penalty;
  }
  if (resident_thread_load_ > limit) {
    speed *= std::pow(static_cast<double>(limit) /
                          static_cast<double>(resident_thread_load_),
                      config_.idle_spin_exponent);
  }
  // Memory-bandwidth saturation: declared bandwidth shares of resident
  // containers contend on the GDDR ring, degrading roughly linearly past
  // the sustainable budget (Fang et al.). Inert while the model is off.
  if (config_.mem_bw.contention) {
    const double budget = mem_bw_budget();
    if (budget > 0.0 && resident_bw_load_ > budget) {
      speed *= std::pow(budget / resident_bw_load_, config_.mem_bw.exponent);
    }
  }
  return speed;
}

void Device::set_resident_thread_load(ThreadCount declared_threads) {
  PHISCHED_REQUIRE(declared_threads >= 0,
                   "set_resident_thread_load: negative load");
  if (declared_threads == resident_thread_load_) return;
  settle();
  resident_thread_load_ = declared_threads;
  reconcile();
}

void Device::set_resident_bw_load(double declared_mib_s) {
  PHISCHED_REQUIRE(std::isfinite(declared_mib_s) && declared_mib_s >= 0.0,
                   "set_resident_bw_load: load must be finite and >= 0");
  if (declared_mib_s == resident_bw_load_) return;
  settle();
  resident_bw_load_ = declared_mib_s;
  if (obs_.bw_demand != nullptr) {
    obs_.bw_demand->set(sim_.now(), resident_bw_load_);
  }
  reconcile();
}

void Device::reconcile() {
  speed_ = compute_speed();
  busy_core_time_.set(sim_.now(), static_cast<double>(cores_.busy_cores()));

  // Episode accounting: one episode spans the whole interval during which
  // thread demand exceeds the hardware budget, regardless of how many
  // offloads come and go inside it.
  const bool over = active_thread_demand() > capability().hw.hw_threads();
  if (over != oversub_active_) {
    oversub_active_ = over;
    if (over) {
      stats_.oversub_episodes += 1;
      if (obs_.rec != nullptr) {
        obs_.rec->event(sim_.now(), "oversub_begin",
                        {{"device", obs_.prefix},
                         {"demand", std::to_string(active_thread_demand())},
                         {"limit",
                          std::to_string(capability().hw.hw_threads())}});
      }
    } else if (obs_.rec != nullptr) {
      obs_.rec->event(sim_.now(), "oversub_end", {{"device", obs_.prefix}});
    }
  }
  if (obs_.rec != nullptr) {
    obs_.speed->set(sim_.now(), speed_);
    obs_.busy_cores->set(sim_.now(), static_cast<double>(cores_.busy_cores()));
    obs_.speed_seconds->set(sim_.now(), speed_);
  }
  for (auto& [id, off] : offloads_) {
    off.completion.cancel();
    const SimTime eta = off.remaining_work / speed_;
    const OffloadId oid = id;
    off.completion = sim_.schedule_in(eta, [this, oid] { finish_offload(oid); });
  }
}

void Device::finish_offload(OffloadId id) {
  auto it = offloads_.find(id);
  PHISCHED_CHECK(it != offloads_.end(), "Device ", name_,
                 ": finish_offload for unknown offload id=", id,
                 " t=", sim_.now());
  settle();
  PHISCHED_CHECK(it->second.remaining_work <= 1e-6, "Device ", name_,
                 ": offload id=", id, " job=", it->second.job,
                 " completed with ", it->second.remaining_work,
                 " work remaining t=", sim_.now());

  const JobId job = it->second.job;
  auto on_complete = std::move(it->second.on_complete);
  cores_.release(it->second.alloc);
  memory_used_ -= it->second.memory;
  PHISCHED_CHECK(memory_used_ >= 0, "Device ", name_,
                 ": memory accounting underflow finishing offload id=", id,
                 " job=", job, " (used=", memory_used_, " MiB) t=",
                 sim_.now());

  auto pit = procs_.find(job);
  PHISCHED_CHECK(pit != procs_.end(), "Device ", name_, ": offload id=", id,
                 " has no owning process for job=", job, " t=", sim_.now());
  pit->second.running_offloads -= 1;
  pit->second.offload_memory -= it->second.memory;
  pit->second.active_threads -= it->second.threads;

  offloads_.erase(it);
  stats_.offloads_completed += 1;
  note_container(job);
  reconcile();

  if (on_complete) on_complete();
}

void Device::check_oom() {
  if (in_oom_sweep_) return;  // re-entrancy guard: kills mutate memory
  in_oom_sweep_ = true;
  while (memory_used_ > usable_memory() && !procs_.empty()) {
    // Linux's OOM killer picks an effectively arbitrary victim (paper
    // Section II-C: "randomly terminates processes").
    auto it = procs_.begin();
    std::advance(it, static_cast<std::ptrdiff_t>(rng_.index(procs_.size())));
    do_kill(it->first, KillReason::kOom);
  }
  in_oom_sweep_ = false;
}

void Device::do_kill(JobId job, KillReason reason, bool invoke_callback) {
  auto pit = procs_.find(job);
  PHISCHED_CHECK(pit != procs_.end(), "Device ", name_,
                 ": do_kill for job=", job, " with no resident process t=",
                 sim_.now());

  settle();

  if (obs_.rec != nullptr) {
    obs_.rec->event(sim_.now(), "kill",
                    {{"device", obs_.prefix},
                     {"job", std::to_string(job)},
                     {"reason", kill_reason_name(reason)},
                     {"memory_used_mib", std::to_string(memory_used_)},
                     {"usable_mib", std::to_string(usable_memory())}});
  }

  // Tear down the victim's offloads.
  std::vector<OffloadId> doomed;
  for (auto& [id, off] : offloads_) {
    if (off.job == job) doomed.push_back(id);
  }
  for (OffloadId id : doomed) {
    auto it = offloads_.find(id);
    it->second.completion.cancel();
    cores_.release(it->second.alloc);
    memory_used_ -= it->second.memory;
    pit->second.offload_memory -= it->second.memory;
    pit->second.running_offloads -= 1;
    pit->second.active_threads -= it->second.threads;
    offloads_.erase(it);
  }
  PHISCHED_CHECK(pit->second.offload_memory == 0 &&
                     pit->second.running_offloads == 0,
                 "Device ", name_, ": kill of job=", job,
                 " left offload state behind (offload_mem=",
                 pit->second.offload_memory,
                 " running=", pit->second.running_offloads, ") t=",
                 sim_.now());

  memory_used_ -= pit->second.base_memory;
  PHISCHED_CHECK(memory_used_ >= 0, "Device ", name_,
                 ": memory accounting underflow killing job=", job,
                 " (used=", memory_used_, " MiB) t=", sim_.now());

  auto on_kill = std::move(pit->second.on_kill);
  procs_.erase(pit);
  pcie_link_.cancel_job(job);
  note_container(job);

  switch (reason) {
    case KillReason::kOom: stats_.oom_kills += 1; break;
    case KillReason::kContainerLimit: stats_.container_kills += 1; break;
    case KillReason::kAdmin: stats_.admin_kills += 1; break;
  }

  reconcile();
  if (invoke_callback && on_kill) on_kill(job, reason);
}

}  // namespace phisched::phi
