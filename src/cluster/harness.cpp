#include "cluster/harness.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/quantize.hpp"

#include "cluster/jobrun.hpp"
#include "cluster/node.hpp"
#include "common/check.hpp"
#include "condor/ads.hpp"
#include "condor/negotiator.hpp"
#include "core/addon.hpp"
#include "obs/recorder.hpp"
#include "sim/timer.hpp"

namespace phisched::cluster {

namespace {

[[nodiscard]] bool uses_cosmic(StackConfig c) { return c != StackConfig::kMC; }

[[nodiscard]] bool uses_addon(StackConfig c) {
  return c == StackConfig::kMCCK || c == StackConfig::kMCCFirstFit ||
         c == StackConfig::kMCCBestFit || c == StackConfig::kMCCOracle;
}

}  // namespace

Harness::Harness(const ExperimentConfig& config)
    : config_(config),
      rng_(config.seed),
      schedd_(sim_),
      collector_(config.ad_update_interval > 0.0
                     ? condor::Collector(sim_, config.ad_update_interval)
                     : condor::Collector()) {
  PHISCHED_REQUIRE(config_.node_count > 0, "experiment: need nodes");
  // Node ids are NodeId (int): a larger count wraps when cast, so no
  // node would be built.
  PHISCHED_REQUIRE(
      config_.node_count <=
          static_cast<std::size_t>(std::numeric_limits<NodeId>::max()),
      "experiment: node_count does not fit a NodeId");
  PHISCHED_REQUIRE(config_.dispatch_latency >= 0.0 &&
                       config_.dispatch_latency < config_.negotiation_interval,
                   "experiment: dispatch latency must be below the "
                   "negotiation interval");
  if (config_.telemetry) recorder_ = std::make_unique<obs::Recorder>();
  build_nodes();
  build_condor();
}

Harness::~Harness() = default;

void Harness::build_nodes() {
  NodeConfig nc;
  nc.hw = config_.node_hw;
  nc.devices = config_.devices;
  nc.device.mem_bw = config_.mem_bw;
  nc.device.oversub_exponent = config_.oversub_exponent;
  nc.device.unmanaged_overlap_penalty = config_.unmanaged_overlap_penalty;
  nc.device.idle_spin_exponent = config_.idle_spin_exponent;
  nc.device.affinity = uses_cosmic(config_.stack)
                           ? phi::AffinityPolicy::kManagedCompact
                           : phi::AffinityPolicy::kUnmanagedScatter;
  nc.middleware.enforce_containers =
      uses_cosmic(config_.stack) && !config_.disable_containers_for_testing;
  nc.middleware.serialize_offloads = uses_cosmic(config_.stack);
  nc.middleware.drain = config_.drain;
  nc.middleware.queued_resume_overhead_s = config_.queued_resume_overhead;
  nc.device.pcie = config_.pcie;
  nc.pcie_switch = config_.pcie_switch;

  for (NodeId n = 0; n < static_cast<NodeId>(config_.node_count); ++n) {
    nodes_.push_back(std::make_unique<Node>(
        sim_, n, nc, rng_.child("node" + std::to_string(n))));
    collector_.advertise(n, [this, n] {
      return nodes_[static_cast<std::size_t>(n)]->advertised_ad();
    });
    if (recorder_ != nullptr) {
      Node& node = *nodes_.back();
      const std::string tag = "node" + std::to_string(n);
      node.middleware().attach_telemetry(*recorder_, "cosmic." + tag);
      for (DeviceId d = 0; d < node.device_count(); ++d) {
        node.device(d).attach_telemetry(
            *recorder_, "phi." + tag + ".mic" + std::to_string(d));
      }
      if (node.pcie_switch() != nullptr) {
        node.pcie_switch()->attach_telemetry(*recorder_,
                                             "phi." + tag + ".pcie_switch");
      }
    }
  }
}

std::uint64_t Harness::machine_ad_builds() const {
  std::uint64_t builds = 0;
  for (const auto& node : nodes_) builds += node->ad_builds();
  return builds;
}

void Harness::build_condor() {
  condor::NegotiatorConfig ncfg;
  ncfg.cycle_interval = config_.negotiation_interval;
  ncfg.negotiation = config_.negotiation;
  negotiator_ = std::make_unique<condor::Negotiator>(
      sim_, schedd_, collector_,
      [this](JobId job, NodeId node) { return dispatch(job, node); }, ncfg,
      rng_.child("negotiator"));
  if (recorder_ != nullptr) {
    negotiator_->attach_telemetry(*recorder_, "condor.negotiator");
    schedd_.attach_telemetry(*recorder_, "condor.schedd");
    // Per-job slowdown (turnaround over solo full-speed duration), the
    // paper's fairness lens on sharing, sampled as each job ends.
    slowdown_ = &recorder_->metrics().histogram("cluster.job_slowdown", 0.0,
                                                20.0, 40);
  }

  if (uses_addon(config_.stack)) {
    std::unique_ptr<core::AssignmentPolicy> policy;
    core::AddonConfig addon_config = config_.addon;
    switch (config_.stack) {
      case StackConfig::kMCCFirstFit:
        policy = core::make_first_fit_policy();
        break;
      case StackConfig::kMCCBestFit:
        policy = core::make_best_fit_policy();
        break;
      case StackConfig::kMCCOracle:
        policy = core::make_oracle_lpt_policy();
        addon_config.duration_oracle = [this](JobId id) {
          return jobs_.at(id).spec.profile.total_duration();
        };
        break;
      default:
        policy = config_.policy_factory != nullptr
                     ? config_.policy_factory()
                     : core::make_knapsack_policy(config_.knapsack);
        break;
    }
    addon_ = std::make_unique<core::SharingAwareScheduler>(
        schedd_, std::move(policy), addon_config);
    negotiator_->set_pre_cycle_hook(
        [this](const condor::MachineAds& machines) {
          addon_->pre_cycle(machines);
        });
  }

  schedd_.set_on_terminal([this](const condor::JobRecord& rec) {
    // The user observer runs first, while the record is fresh, so a
    // service layer can stream per-job wait/turnaround samples the
    // moment they exist.
    if (terminal_observer_ != nullptr) terminal_observer_(rec);
    if (slowdown_ != nullptr) {
      const double solo = jobs_.at(rec.id).spec.profile.total_duration();
      if (solo > 0.0) {
        slowdown_->add((rec.finish_time - rec.submit_time) / solo);
      }
    }
    if (complete()) {
      negotiator_->stop();
      if (sampler_ != nullptr) sampler_->stop();
    }
  });
}

void Harness::ensure_started() {
  if (started_) return;
  started_ = true;
  // Trigger an immediate first negotiation so the cluster does not sit
  // idle for one full interval (Condor negotiates on submission).
  sim_.schedule_in(0.0, [this] { negotiator_->run_cycle(); });
  negotiator_->start();
  if (config_.sample_interval > 0.0) {
    sampler_ = std::make_unique<PeriodicTimer>(
        sim_, config_.sample_interval, [this] { take_sample(); });
  }
}

void Harness::take_sample() {
  CoreCount busy = 0;
  CoreCount total = 0;
  for (const auto& node : nodes_) {
    for (DeviceId d = 0; d < node->device_count(); ++d) {
      busy += node->device(d).busy_cores();
      total += node->device(d).capability().hw.cores;
    }
  }
  samples_.emplace_back(
      sim_.now(),
      total > 0 ? static_cast<double>(busy) / static_cast<double>(total)
                : 0.0);
}

/// Requirements each stack submits with. Add-on configurations submit
/// jobs that match nothing until the add-on pins them: the cluster
/// scheduler owns every placement decision, so vanilla matchmaking must
/// not race it (the paper's add-on wins the same race by batching
/// qedits before each cycle).
std::string Harness::requirements_for_stack() const {
  if (config_.stack == StackConfig::kMC) {
    return condor::exclusive_requirements();
  }
  return uses_addon(config_.stack) ? "false"
                                   : condor::arbitrary_requirements();
}

const char* Harness::unfit_reason(const workload::JobSpec& job) const {
  // Every node carries the same cards. Each of the job's devices_req
  // cards must hold its whole declaration, so count the cards that do.
  bool memory_fits = false;
  bool threads_fit = false;
  int holding = 0;
  for (const phi::DeviceCapability& card : config_.devices) {
    const bool memory = job.mem_req_mib <= card.hw.usable_memory_mib();
    const bool threads = job.threads_req <= card.hw.hw_threads();
    memory_fits = memory_fits || memory;
    threads_fit = threads_fit || threads;
    if (memory && threads) ++holding;
  }
  if (!memory_fits) return "job does not fit one coprocessor's memory";
  if (!threads_fit) return "job does not fit one coprocessor's threads";
  if (job.devices_req < 1 || job.devices_req > holding) {
    return "job's gang does not fit one node's devices";
  }
  return nullptr;
}

void Harness::submit(const workload::JobSpec& job) {
  const char* unfit = unfit_reason(job);
  PHISCHED_REQUIRE(unfit == nullptr, unfit);
  PHISCHED_REQUIRE(job.submit_time >= 0.0, "negative submit time");
  // Submitting into a drained harness re-opens the run: the negotiator
  // (stopped by the terminal hook) must be re-armed, and any finalized
  // result is stale.
  const bool resume = started_ && complete();
  // A retired job has left jobs_ but not the schedd.
  PHISCHED_REQUIRE(!schedd_.known(job.id), "harness: duplicate job id");
  const auto [it, added] = jobs_.try_emplace(job.id);
  PHISCHED_REQUIRE(added, "harness: duplicate job id");
  Job& entry = it->second;
  entry.spec = job;
  total_jobs_ += 1;
  final_.reset();

  const std::string reqs = requirements_for_stack();
  if (job.submit_time <= sim_.now()) {
    entry.record = &schedd_.submit(job.id, condor::make_job_ad(job, reqs));
  } else {
    // Dynamic arrival (the paper's "dynamic scenario with continuously
    // arriving jobs"): each negotiation cycle schedules a snapshot of
    // whatever is pending at that moment. The spec is captured by value,
    // so the ad is built from what this call submitted.
    sim_.schedule_at(job.submit_time, [this, &entry, spec = job, reqs] {
      entry.record =
          &schedd_.submit(spec.id, condor::make_job_ad(spec, reqs));
    });
  }

  if (resume) {
    sim_.schedule_in(0.0, [this] { negotiator_->run_cycle(); });
    negotiator_->start();
    if (sampler_ != nullptr) sampler_->start();
  }
}

void Harness::submit(const workload::JobSet& jobs) {
  for (const workload::JobSpec& job : jobs) submit(job);
}

bool Harness::step() {
  ensure_started();
  return sim_.step();
}

std::size_t Harness::run_until(SimTime t) {
  ensure_started();
  return sim_.run_until(t);
}

std::size_t Harness::run_for(SimTime dt) { return run_until(sim_.now() + dt); }

ExperimentResult Harness::run_to_completion() {
  ensure_started();
  // With nothing left to finish, no terminal transition will stop the
  // periodic timers, and the queue would never drain.
  if (complete()) {
    negotiator_->stop();
    if (sampler_ != nullptr) sampler_->stop();
  }
  sim_.run();
  PHISCHED_CHECK(
      complete(),
      "experiment deadlock: " + std::to_string(schedd_.pending_count()) +
          " jobs never scheduled");
  return result();
}

SimTime Harness::now() const { return sim_.now(); }

bool Harness::complete() const {
  return schedd_.completed_count() + schedd_.failed_count() == total_jobs_;
}

std::size_t Harness::jobs_completed() const {
  return schedd_.completed_count();
}

std::size_t Harness::jobs_failed() const { return schedd_.failed_count(); }

std::size_t Harness::jobs_pending() const { return schedd_.pending_count(); }

std::vector<DeviceCapacity> Harness::device_capacities() const {
  std::vector<DeviceCapacity> capacities;
  for (const auto& node : nodes_) {
    for (DeviceId d = 0; d < node->device_count(); ++d) {
      capacities.push_back(
          DeviceCapacity{node->middleware().unreserved_memory(d),
                         node->middleware().unreserved_threads(d)});
    }
  }
  return capacities;
}

void Harness::set_terminal_observer(
    std::function<void(const condor::JobRecord&)> observer) {
  terminal_observer_ = std::move(observer);
}

bool Harness::dispatch(JobId job_id, NodeId node_id) {
  // The negotiation cycle runs in an event of its own, so no run is on
  // the stack here.
  for (const auto& run : retired_runs_) {
    PHISCHED_DCHECK(run->quiescent(), "harness: job=", run->spec().id,
                    " freed while a callback can still reach its run");
  }
  retired_runs_.clear();
  Node& node = *nodes_[static_cast<std::size_t>(node_id)];
  if (node.free_slots() <= 0) return false;

  Job& job = jobs_.at(job_id);
  const workload::JobSpec& spec = job.spec;

  // Device pinning: MC claims whole free devices (the job's entire
  // gang); add-on jobs carry the knapsack's choice in their ad; plain
  // MCC — and gang jobs under any sharing stack — let COSMIC decide.
  std::vector<DeviceId> devices;
  if (config_.stack == StackConfig::kMC) {
    // Claim devices_req whole free devices that can hold the job's
    // memory, skipping ones already claimed by an in-flight dispatch this
    // cycle (their reservation lands only after the shadow/starter
    // latency).
    for (DeviceId d = 0;
         d < node.device_count() &&
         devices.size() < static_cast<std::size_t>(spec.devices_req);
         ++d) {
      if (node.middleware().jobs_on_device(d) == 0 &&
          node.device(d).usable_memory() >= spec.mem_req_mib &&
          exclusive_claims_.find(DeviceAddress{node_id, d}) ==
              exclusive_claims_.end()) {
        devices.push_back(d);
      }
    }
    if (devices.size() < static_cast<std::size_t>(spec.devices_req)) {
      return false;  // stale ad: not enough free devices that fit
    }
    for (DeviceId d : devices) {
      exclusive_claims_.insert(DeviceAddress{node_id, d});
      job.exclusive_claims.push_back(DeviceAddress{node_id, d});
    }
  } else if (spec.devices_req == 1) {
    const auto pinned = schedd_.view(*job.record).pinned_device;
    if (pinned.has_value()) devices.push_back(static_cast<DeviceId>(*pinned));
  }

  job.run = std::make_unique<JobRun>(
      sim_, spec, node.middleware(), devices,
      [this, &job](const workload::JobSpec&, bool success) {
        on_job_done(job, success);
      });
  node.claim_slot();
  // Shadow/starter latency: transfer the job and spawn it at the node.
  sim_.schedule_in(config_.dispatch_latency,
                   [this, &job, run = job.run.get()] {
                     schedd_.mark_running(*job.record);
                     run->arrive();
                   });
  return true;
}

void Harness::on_job_done(Job& job, bool success) {
  nodes_[static_cast<std::size_t>(job.record->node)]->release_slot();
  for (const DeviceAddress& addr : job.exclusive_claims) {
    exclusive_claims_.erase(addr);
  }
  job.exclusive_claims.clear();
  // The run ended inside its own callbacks, so it only changes owner
  // here: an OOM kill can even land inside the drain of the job's own
  // completing offload, whose callback then calls the killed run.
  retired_runs_.push_back(std::move(job.run));
  if (!success && job.record->retries < config_.max_retries) {
    // Requeue with a boosted declaration: the kill told us the
    // estimate was too low.
    MiB usable = 0;
    for (const phi::DeviceCapability& card : config_.devices) {
      usable = std::max(usable, card.hw.usable_memory_mib());
    }
    const auto boosted = static_cast<MiB>(
        std::llround(static_cast<double>(job.spec.mem_req_mib) *
                     config_.retry_memory_boost));
    job.spec.mem_req_mib = std::min(usable, quantize_up(boosted));
    schedd_.requeue(*job.record,
                    condor::make_job_ad(job.spec, requirements_for_stack()));
    return;
  }
  if (success) {
    schedd_.mark_completed(*job.record);
  } else {
    schedd_.mark_failed(*job.record);
  }
  jobs_.erase(job.record->id);
}

ExperimentResult Harness::gather(SimTime until) const {
  ExperimentResult r;
  r.makespan = schedd_.last_finish_time();
  r.jobs_completed = schedd_.completed_count();
  r.jobs_failed = schedd_.failed_count();
  r.negotiation_cycles = negotiator_->stats().cycles;
  r.matches = negotiator_->stats().matches;
  r.events_processed = sim_.events_processed();
  if (addon_ != nullptr) r.addon_pins = addon_->stats().pins;

  double util_sum = 0.0;
  for (const auto& node : nodes_) {
    for (DeviceId d = 0; d < node->device_count(); ++d) {
      const phi::Device& dev = node->device(d);
      const double u = until > 0.0 ? dev.core_utilization(until) : 0.0;
      r.per_device_utilization.push_back(u);
      util_sum += u;
      r.device_energy_mj += dev.energy_joules(until) / 1e6;
      r.offloads_started += dev.stats().offloads_started;
      r.oom_kills += dev.stats().oom_kills;
      r.container_kills += dev.stats().container_kills;
    }
    r.offloads_queued += node->middleware().stats().offloads_queued;
  }
  if (!r.per_device_utilization.empty()) {
    r.avg_core_utilization =
        util_sum / static_cast<double>(r.per_device_utilization.size());
  }

  // Id order: the Welford sums depend on the order of their samples.
  // Future arrivals are still in the event queue, not in the schedd.
  schedd_.for_each_by_id([&r](const condor::JobRecord& rec) {
    if (rec.finish_time >= 0.0) {
      r.turnaround.add(rec.finish_time - rec.submit_time);
    }
    if (rec.start_time >= 0.0) {
      r.wait_time.add(rec.start_time - rec.submit_time);
    }
    r.job_retries += static_cast<std::size_t>(rec.retries);
  });
  r.mean_turnaround = r.turnaround.mean();
  r.utilization_series = samples_;
  return r;
}

void Harness::roll_up(obs::MetricsSnapshot& m,
                      const ExperimentResult& r) const {
  // Written into the snapshot, not through the registry, so the schema
  // extractor cannot see the names; declare them for the lint.
  // phisched-lint: emits(gauge cluster.makespan_s)
  // phisched-lint: emits(gauge cluster.avg_core_utilization)
  // phisched-lint: emits(gauge cluster.device_energy_mj)
  // phisched-lint: emits(gauge cluster.mean_turnaround_s)
  // phisched-lint: emits(counter cluster.jobs_completed)
  // phisched-lint: emits(counter cluster.jobs_failed)
  // phisched-lint: emits(counter cluster.job_retries)
  m.gauges["cluster.makespan_s"] = r.makespan;
  m.gauges["cluster.avg_core_utilization"] = r.avg_core_utilization;
  m.gauges["cluster.device_energy_mj"] = r.device_energy_mj;
  m.gauges["cluster.mean_turnaround_s"] = r.mean_turnaround;
  m.counters["cluster.jobs_completed"] = r.jobs_completed;
  m.counters["cluster.jobs_failed"] = r.jobs_failed;
  m.counters["cluster.job_retries"] = r.job_retries;
}

ExperimentResult Harness::finish(SimTime until) const {
  ExperimentResult r = gather(until);
  if (recorder_ != nullptr) {
    // One read of the live recorder. The events closing open
    // oversubscription episodes and the cluster rollups go into that
    // snapshot only, so the recorder never holds them.
    obs::Snapshot snap = obs::take_snapshot(*recorder_, until);
    for (const auto& node : nodes_) {
      for (DeviceId d = 0; d < node->device_count(); ++d) {
        node->device(d).finalize_telemetry_into(snap);
      }
    }
    roll_up(snap.metrics, r);
    r.telemetry = std::make_shared<const obs::Snapshot>(std::move(snap));
  }
  return r;
}

ExperimentResult Harness::snapshot() const {
  // Mid-run horizon: the current clock (>= every instrument's last
  // update). At completion this coincides with the makespan.
  return finish(sim_.now());
}

const ExperimentResult& Harness::result() {
  PHISCHED_REQUIRE(complete(),
                   "harness: result() requires every submitted job to be "
                   "terminal (use snapshot() mid-run)");
  // Integrate time-weighted metrics exactly to the makespan, not to a
  // possibly-overshot clock (run_until(t) may have advanced past it).
  if (!final_.has_value()) final_ = finish(schedd_.last_finish_time());
  return *final_;
}

}  // namespace phisched::cluster
