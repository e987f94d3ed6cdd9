#include "cluster/service.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.hpp"
#include "common/json.hpp"
#include "workload/templates.hpp"

namespace phisched::cluster {

namespace {

double declared_threads(const workload::JobSpec& job) {
  return static_cast<double>(job.threads_req) *
         static_cast<double>(job.devices_req);
}

workload::JobSpec sample_table1_job(JobId id, Rng& rng) {
  const auto& templates = workload::table1_templates();
  return templates[rng.index(templates.size())].sample(id, rng);
}

}  // namespace

Service::Service(const ServiceConfig& config)
    : config_(config),
      harness_(config.cluster),
      admission_(config.admission),
      job_rng_(Rng(config.cluster.seed).child("service.jobs")),
      tenant_rng_(Rng(config.cluster.seed).child("service.tenants")) {
  PHISCHED_REQUIRE(config_.horizon_s > 0.0, "service: horizon_s must be > 0");
  PHISCHED_REQUIRE(config_.window_s > 0.0, "service: window_s must be > 0");
  PHISCHED_REQUIRE(config_.tenants >= 1, "service: tenants must be >= 1");
  PHISCHED_REQUIRE(config_.tenant_skew >= 0.0,
                   "service: tenant_skew must be >= 0");

  if (!config_.job_factory) config_.job_factory = sample_table1_job;
  stream_ = workload::make_arrival_stream(
      config_.arrivals, Rng(config_.cluster.seed).child("service.arrivals"));

  // Nothing is reserved yet, so the free threads are the hardware threads
  // of the cards the harness built (a mixed fleet's included).
  thread_capacity_ = 0.0;
  for (const DeviceCapacity& card : harness_.device_capacities()) {
    thread_capacity_ += static_cast<double>(card.free_threads);
  }

  // Tenant k draws with weight (k+1)^-skew; the CDF makes the pick a
  // single uniform draw regardless of admission outcomes.
  tenants_.resize(config_.tenants);
  tenant_cdf_.reserve(config_.tenants);
  double total = 0.0;
  for (std::size_t k = 0; k < config_.tenants; ++k) {
    total += std::pow(static_cast<double>(k + 1), -config_.tenant_skew);
    tenant_cdf_.push_back(total);
  }
  for (double& c : tenant_cdf_) c /= total;
  tenant_cdf_.back() = 1.0;

  harness_.set_terminal_observer(
      [this](const condor::JobRecord& rec) { on_terminal(rec); });
}

Service::~Service() = default;

std::size_t Service::pick_tenant() {
  if (config_.tenants == 1) return 0;
  const double u = tenant_rng_.uniform_real(0.0, 1.0);
  const auto it =
      std::lower_bound(tenant_cdf_.begin(), tenant_cdf_.end(), u);
  return std::min(static_cast<std::size_t>(it - tenant_cdf_.begin()),
                  config_.tenants - 1);
}

void Service::schedule_arrival(SimTime t) {
  harness_.simulator().schedule_at(t, [this, t] {
    const JobId id = next_id_++;
    workload::JobSpec job = config_.job_factory(id, job_rng_);
    job.id = id;  // ids stay unique even if a factory forgets to set them
    job.submit_time = t;
    ++jobs_generated_;
    offer(std::move(job), t, 0, pick_tenant());

    if (config_.max_jobs > 0 && jobs_generated_ >= config_.max_jobs) {
      stream_done_ = true;
      return;
    }
    const auto next = stream_->next();
    if (next.has_value() && *next < config_.horizon_s) {
      schedule_arrival(*next);
    } else {
      stream_done_ = true;
    }
  });
}

void Service::offer(workload::JobSpec job, SimTime offer_time,
                    int defers_so_far, std::size_t tenant) {
  AdmissionState state;
  state.fits = harness_.unfit_reason(job) == nullptr;
  state.queue_depth = harness_.jobs_pending();
  state.occupied_threads = occupied_threads_;
  state.thread_capacity = thread_capacity_;
  if (config_.admission.consult_packer) {
    state.devices = harness_.device_capacities();
  }
  switch (admission_.decide(job, state, defers_so_far)) {
    case AdmissionDecision::kAdmit: {
      occupied_threads_ += declared_threads(job);
      live_[job.id] = LiveJob{offer_time, tenant, declared_threads(job),
                              job.profile.total_duration()};
      // A deferred job is past its original submit_time by now; the
      // harness submits it immediately either way.
      job.submit_time = std::min(job.submit_time, harness_.now());
      harness_.submit(job);
      break;
    }
    case AdmissionDecision::kDefer: {
      const SimTime retry =
          harness_.now() + config_.admission.defer_delay_s;
      harness_.simulator().schedule_at(
          retry, [this, spec = std::move(job), offer_time, defers_so_far,
                  tenant] { offer(spec, offer_time, defers_so_far + 1, tenant); });
      break;
    }
    case AdmissionDecision::kReject:
      break;
  }
}

void Service::on_terminal(const condor::JobRecord& rec) {
  const auto it = live_.find(rec.id);
  if (it == live_.end()) return;  // submitted outside the service's stream
  const LiveJob job = it->second;
  live_.erase(it);
  occupied_threads_ -= job.declared_threads;

  if (rec.state == condor::JobState::kCompleted) {
    const double wait = rec.start_time - job.offered;
    const double turnaround = rec.finish_time - job.offered;
    window_wait_.add(wait);
    total_wait_.add(wait);
    window_turnaround_.add(turnaround);
    total_turnaround_.add(turnaround);
    window_completed_ += 1;
    auto& tenant = tenants_[job.tenant];
    tenant.completed += 1;
    tenant.slowdown_sum += job.solo_duration_s > 0.0
                               ? turnaround / job.solo_duration_s
                               : 1.0;
  } else {
    window_failed_ += 1;
  }
}

double Service::occupancy() const {
  return thread_capacity_ > 0.0 ? occupied_threads_ / thread_capacity_ : 0.0;
}

double Service::jain_fairness() const {
  double sum = 0.0;
  double sum_sq = 0.0;
  std::size_t n = 0;
  for (const auto& tenant : tenants_) {
    if (tenant.completed == 0) continue;
    const double x =
        tenant.slowdown_sum / static_cast<double>(tenant.completed);
    sum += x;
    sum_sq += x * x;
    ++n;
  }
  if (n <= 1 || sum_sq == 0.0) return 1.0;
  return (sum * sum) / (static_cast<double>(n) * sum_sq);
}

void Service::close_window(SimTime t_start, SimTime t_end) {
  const AdmissionStats& a = admission_.stats();

  ServiceWindow w;
  w.index = windows_.size();
  w.t_start = t_start;
  w.t_end = t_end;
  auto& m = w.metrics;

  const auto delta = [](std::uint64_t now, std::uint64_t then) {
    return static_cast<double>(now - then);
  };
  m["t_start_s"] = t_start;
  m["t_end_s"] = t_end;
  m["offered"] = delta(a.offered, last_admission_.offered);
  m["admitted"] = delta(a.admitted, last_admission_.admitted);
  m["admitted_by_pack"] =
      delta(a.admitted_by_pack, last_admission_.admitted_by_pack);
  m["rejected_queue"] = delta(a.rejected_queue, last_admission_.rejected_queue);
  m["rejected_occupancy"] =
      delta(a.rejected_occupancy, last_admission_.rejected_occupancy);
  m["rejected_unfit"] = delta(a.rejected_unfit, last_admission_.rejected_unfit);
  m["deferred"] = delta(a.deferred, last_admission_.deferred);
  m["dropped"] = delta(a.dropped, last_admission_.dropped);
  m["rejected_total"] = delta(a.rejected_total(), last_admission_.rejected_total());
  m["queue_depth"] = static_cast<double>(harness_.jobs_pending());
  m["jobs_in_flight"] = static_cast<double>(live_.size());
  m["occupancy"] = occupancy();
  m["completed"] = static_cast<double>(window_completed_);
  m["failed"] = static_cast<double>(window_failed_);

  m["p50_wait_s"] = window_wait_.p50();
  m["p95_wait_s"] = window_wait_.p95();
  m["p99_wait_s"] = window_wait_.p99();
  m["mean_wait_s"] = window_wait_.mean();
  m["max_wait_s"] = window_wait_.max();
  m["p50_turnaround_s"] = window_turnaround_.p50();
  m["p95_turnaround_s"] = window_turnaround_.p95();
  m["p99_turnaround_s"] = window_turnaround_.p99();
  m["mean_turnaround_s"] = window_turnaround_.mean();

  m["cum_p50_wait_s"] = total_wait_.p50();
  m["cum_p95_wait_s"] = total_wait_.p95();
  m["cum_p99_wait_s"] = total_wait_.p99();
  m["cum_mean_wait_s"] = total_wait_.mean();
  m["cum_p99_turnaround_s"] = total_turnaround_.p99();
  m["fairness_jain"] = jain_fairness();

  windows_.push_back(std::move(w));
  window_wait_.reset();
  window_turnaround_.reset();
  window_completed_ = 0;
  window_failed_ = 0;
  last_admission_ = a;
}

ServiceResult Service::run() {
  PHISCHED_REQUIRE(!ran_, "service: run() may be called only once");
  ran_ = true;

  const auto first = stream_->next();
  if (first.has_value() && *first < config_.horizon_s) {
    schedule_arrival(*first);
  } else {
    stream_done_ = true;
  }

  SimTime t = 0.0;
  while (t < config_.horizon_s) {
    const SimTime end = std::min(t + config_.window_s, config_.horizon_s);
    harness_.run_until(end);
    close_window(t, end);
    t = end;
  }

  ServiceResult result;
  if (config_.drain && harness_.jobs_submitted() > 0) {
    result.cluster = harness_.run_to_completion();
    result.drained = true;
    if (harness_.now() > config_.horizon_s) {
      close_window(config_.horizon_s, harness_.now());
    }
  } else {
    result.cluster = harness_.snapshot();
    result.drained = config_.drain;  // nothing was submitted: trivially drained
  }
  result.windows = windows_;
  result.admission = admission_.stats();
  result.jobs_generated = jobs_generated_;
  result.jobs_admitted = admission_.stats().admitted;
  return result;
}

std::string sla_report_json(const ServiceConfig& config,
                            const ServiceResult& result, bool pretty) {
  JsonWriter w(pretty);
  w.begin_object();
  w.member("bench", "service");
  w.member("schema_version", 1);

  w.key("service");
  w.begin_object();
  w.member("arrivals", config.arrivals.to_string());
  w.member("stack", stack_config_name(config.cluster.stack));
  w.member("nodes", static_cast<std::uint64_t>(config.cluster.node_count));
  w.member("seed", config.cluster.seed);
  w.member("horizon_s", config.horizon_s);
  w.member("window_s", config.window_s);
  w.member("tenants", static_cast<std::uint64_t>(config.tenants));
  w.member("max_queue_depth",
           static_cast<std::uint64_t>(config.admission.max_queue_depth));
  w.member("max_occupancy", config.admission.max_occupancy);
  w.member("defer_delay_s", config.admission.defer_delay_s);
  w.member("drained", result.drained);
  w.end_object();

  w.key("totals");
  w.begin_object();
  w.member("jobs_generated", static_cast<std::uint64_t>(result.jobs_generated));
  w.member("offered", result.admission.offered);
  w.member("admitted", result.admission.admitted);
  w.member("admitted_by_pack", result.admission.admitted_by_pack);
  w.member("rejected_queue", result.admission.rejected_queue);
  w.member("rejected_occupancy", result.admission.rejected_occupancy);
  w.member("rejected_unfit", result.admission.rejected_unfit);
  w.member("deferred", result.admission.deferred);
  w.member("dropped", result.admission.dropped);
  w.member("rejected_total", result.admission.rejected_total());
  w.member("jobs_completed",
           static_cast<std::uint64_t>(result.cluster.jobs_completed));
  w.member("jobs_failed",
           static_cast<std::uint64_t>(result.cluster.jobs_failed));
  w.member("makespan", result.cluster.makespan);
  w.end_object();

  // One bench-report row per SLA window (seed = window index) so
  // tools/bench_diff validates the document and window-pairs two runs.
  w.key("results");
  w.begin_array();
  for (const auto& window : result.windows) {
    w.begin_object();
    w.member("seed", static_cast<std::uint64_t>(window.index));
    w.key("metrics");
    w.begin_object();
    for (const auto& [key, value] : window.metrics) w.member(key, value);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return std::move(w).str();
}

}  // namespace phisched::cluster
