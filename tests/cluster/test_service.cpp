// Open-loop service mode: determinism across repeats and engines,
// overload shedding with monotone SLA degradation, windowed accounting,
// deferral, tenant fairness, and the exported report.
#include <gtest/gtest.h>

#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/service.hpp"
#include "phi/capability.hpp"

namespace phisched::cluster {
namespace {

/// A 2-node cluster sustains roughly 2/28.5 ~ 0.07 jobs/s on the
/// Table I mix, so rate 0.15 is a mild overload and 0.5 a heavy one —
/// short horizons still exercise queue growth and shedding.
ServiceConfig small_service(std::uint64_t seed, double rate,
                            SimTime horizon = 300.0) {
  ServiceConfig config;
  config.cluster.node_count = 2;
  config.cluster.seed = seed;
  config.arrivals.kind = workload::ArrivalKind::kPoisson;
  config.arrivals.rate = rate;
  config.horizon_s = horizon;
  config.window_s = horizon / 5.0;
  return config;
}

std::string run_to_report(const ServiceConfig& config) {
  Service service(config);
  return sla_report_json(config, service.run());
}

TEST(Service, BitIdenticalAcrossRepeats) {
  const ServiceConfig config = small_service(7, 0.15);
  const std::string a = run_to_report(config);
  const std::string b = run_to_report(config);
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"bench\": \"service\""), std::string::npos);

  ServiceConfig other = config;
  other.cluster.seed = 8;
  EXPECT_NE(run_to_report(other), a) << "seed must matter";
}

TEST(Service, OverloadShedsAndP99WaitGrowsMonotonically) {
  ServiceConfig config = small_service(11, 0.5, 480.0);
  config.window_s = 60.0;
  config.admission.max_queue_depth = 25;
  Service service(config);
  const ServiceResult r = service.run();

  EXPECT_GT(r.admission.rejected_queue, 0u);
  EXPECT_GT(r.admission.rejected_total(), 0u);
  EXPECT_EQ(r.admission.offered,
            static_cast<std::uint64_t>(r.jobs_generated));
  // Sustained overload: the cumulative p99 wait must ratchet upward
  // window over window (the acceptance criterion for the SLA export).
  double prev = -1.0;
  bool grew = false;
  for (const auto& w : r.windows) {
    const double p99 = w.metrics.at("cum_p99_wait_s");
    EXPECT_GE(p99, prev) << "window " << w.index;
    if (p99 > prev && prev >= 0.0) grew = true;
    prev = p99;
  }
  EXPECT_TRUE(grew) << "p99 wait never moved under 7x overload";
  // The queue gate holds the pending queue at its bound.
  EXPECT_LE(r.windows.back().metrics.at("queue_depth"), 25.0);
}

TEST(Service, WindowAccountingAddsUp) {
  const ServiceConfig config = small_service(3, 0.15);
  Service service(config);
  const ServiceResult r = service.run();

  ASSERT_GE(r.windows.size(), 5u);  // 5 horizon windows (+ drain window)
  EXPECT_GT(r.jobs_generated, 0u);
  EXPECT_EQ(r.jobs_admitted, static_cast<std::size_t>(r.admission.admitted));
  EXPECT_TRUE(r.drained);

  double completed = 0.0;
  double admitted = 0.0;
  for (const auto& w : r.windows) {
    completed += w.metrics.at("completed");
    admitted += w.metrics.at("admitted");
    EXPECT_GE(w.metrics.at("t_end_s"), w.metrics.at("t_start_s"));
  }
  // Drained: every admitted job reached a terminal state inside some
  // window, and the window sums reconcile with the cluster totals.
  EXPECT_DOUBLE_EQ(completed,
                   static_cast<double>(r.cluster.jobs_completed));
  EXPECT_DOUBLE_EQ(admitted, static_cast<double>(r.admission.admitted));
  EXPECT_EQ(r.windows.back().metrics.at("jobs_in_flight"), 0.0);

  // Windows index contiguously and tile [0, horizon] then the drain.
  for (std::size_t i = 0; i < r.windows.size(); ++i) {
    EXPECT_EQ(r.windows[i].index, i);
    if (i > 0) {
      EXPECT_DOUBLE_EQ(r.windows[i].t_start, r.windows[i - 1].t_end);
    }
  }
}

TEST(Service, DeferredArrivalsRetryBeforeDropping) {
  ServiceConfig config = small_service(5, 0.5, 400.0);
  config.admission.max_queue_depth = 3;
  config.admission.defer_delay_s = 30.0;
  config.admission.max_defers = 2;
  Service service(config);
  const ServiceResult r = service.run();

  EXPECT_GT(r.admission.deferred, 0u);
  EXPECT_GT(r.admission.dropped, 0u) << "7x overload must exhaust budgets";
  EXPECT_EQ(r.admission.rejected_queue, 0u)
      << "with a defer path, queue shedding goes through dropped";
  // Retries are extra offers on top of the per-job first offers.
  EXPECT_EQ(r.admission.offered,
            static_cast<std::uint64_t>(r.jobs_generated) +
                r.admission.deferred);
}

TEST(Service, TenantFairnessIsTrackedPerTenant) {
  ServiceConfig config = small_service(13, 0.15);
  config.tenants = 3;
  config.tenant_skew = 1.0;
  Service service(config);
  const ServiceResult r = service.run();

  const double jain = r.windows.back().metrics.at("fairness_jain");
  EXPECT_GT(jain, 0.0);
  EXPECT_LE(jain, 1.0);
}

TEST(Service, TenantSkewChangesOnlyTheFairnessColumn) {
  // Tenants are drawn from their own stream, so the skew moves which
  // tenant each job is charged to and nothing the cluster does.
  ServiceConfig uniform = small_service(13, 0.15);
  uniform.tenants = 3;
  ServiceConfig skewed = uniform;
  skewed.tenant_skew = 4.0;
  Service a(uniform);
  Service b(skewed);
  const ServiceResult ra = a.run();
  const ServiceResult rb = b.run();

  ASSERT_EQ(ra.windows.size(), rb.windows.size());
  bool fairness_moved = false;
  for (std::size_t i = 0; i < ra.windows.size(); ++i) {
    auto ma = ra.windows[i].metrics;
    auto mb = rb.windows[i].metrics;
    fairness_moved = fairness_moved ||
                     ma.at("fairness_jain") != mb.at("fairness_jain");
    ma.erase("fairness_jain");
    mb.erase("fairness_jain");
    EXPECT_EQ(ma, mb) << "window " << i;
  }
  EXPECT_TRUE(fairness_moved);
  EXPECT_NE(sla_report_json(uniform, ra), sla_report_json(skewed, rb));
}

TEST(Service, OccupancyDividesByTheCardsTheHarnessBuilt) {
  // Two nodes of 2x7120P (244 threads per card) hold 976 threads.
  ServiceConfig config = small_service(4, 1.0);
  config.cluster.devices = phi::parse_device_spec("2x7120P");
  config.admission.max_occupancy = 0.9;
  config.max_jobs = 4;
  config.job_factory = [](JobId id, Rng&) {
    workload::JobSpec job;
    job.id = id;
    job.mem_req_mib = 1000;
    job.threads_req = 60;
    job.profile = workload::OffloadProfile({workload::Segment::host(1000.0)});
    return job;
  };
  Service service(config);
  const ServiceResult r = service.run();

  // All four long jobs arrive and stay live through the first window.
  const auto& first = r.windows.front().metrics;
  ASSERT_EQ(first.at("admitted"), 4.0);
  ASSERT_EQ(first.at("completed"), 0.0);
  EXPECT_DOUBLE_EQ(first.at("occupancy"), 4 * 60.0 / 976.0);
}

TEST(Service, RejectsArrivalsNoCardCanHold) {
  // A 3120A has 228 threads, so the Table I mix's 240-thread BT jobs fit
  // no node of 4x3120A. The service counts them and runs on; a direct
  // submit of such a job still violates the harness's precondition.
  ServiceConfig config = small_service(7, 0.3);
  config.cluster.devices = phi::parse_device_spec("4x3120A");
  Service service(config);
  const ServiceResult r = service.run();
  const AdmissionStats& a = r.admission;

  EXPECT_GT(a.rejected_unfit, 0u);
  EXPECT_EQ(a.offered, a.admitted + a.rejected_total() + a.deferred);
  EXPECT_EQ(r.jobs_generated, r.jobs_admitted + a.rejected_total());
  double unfit = 0.0;
  for (const auto& w : r.windows) unfit += w.metrics.at("rejected_unfit");
  EXPECT_EQ(unfit, static_cast<double>(a.rejected_unfit));
  EXPECT_TRUE(r.drained);
  EXPECT_EQ(r.cluster.jobs_completed + r.cluster.jobs_failed,
            r.jobs_admitted);
  EXPECT_EQ(sla_report_json(config, r), run_to_report(config));

  workload::JobSpec wide;
  wide.id = 1'000'000;
  wide.mem_req_mib = 1000;
  wide.threads_req = 240;
  wide.profile = workload::OffloadProfile({workload::Segment::host(1.0)});
  EXPECT_NE(service.harness().unfit_reason(wide), nullptr);
  EXPECT_THROW(service.harness().submit(wide), std::invalid_argument);
}

TEST(Service, MaxJobsCapsGeneration) {
  ServiceConfig config = small_service(9, 0.5);
  config.max_jobs = 5;
  Service service(config);
  const ServiceResult r = service.run();
  EXPECT_EQ(r.jobs_generated, 5u);
  EXPECT_EQ(r.cluster.jobs_completed + r.cluster.jobs_failed, 5u);
}

TEST(Service, EmptyArrivalStreamStillClosesWindows) {
  // A trace whose only arrival lands past the horizon: no job is ever
  // generated, yet every window closes and the drain is trivially done
  // (regression for the zero-job drain hang).
  const std::string path = ::testing::TempDir() + "service_late_trace.txt";
  std::ofstream(path, std::ios::trunc) << "1000.0\n";

  ServiceConfig config = small_service(1, 0.0);
  config.arrivals = workload::ArrivalSpec{};
  config.arrivals.kind = workload::ArrivalKind::kTrace;
  config.arrivals.trace_file = path;
  Service service(config);
  const ServiceResult r = service.run();

  EXPECT_EQ(r.jobs_generated, 0u);
  EXPECT_TRUE(r.drained);
  EXPECT_EQ(r.windows.size(), 5u);
  for (const auto& w : r.windows) {
    EXPECT_EQ(w.metrics.at("offered"), 0.0);
    EXPECT_EQ(w.metrics.at("p99_wait_s"), 0.0);
  }
}

TEST(Service, RunIsSingleShot) {
  Service service(small_service(2, 0.1, 60.0));
  service.run();
  EXPECT_THROW(service.run(), std::invalid_argument);
}

TEST(Service, RejectsInvalidConfigLoudly) {
  ServiceConfig bad = small_service(1, 0.1);
  bad.horizon_s = 0.0;
  EXPECT_THROW(Service{bad}, std::invalid_argument);
  bad = small_service(1, 0.1);
  bad.window_s = -1.0;
  EXPECT_THROW(Service{bad}, std::invalid_argument);
  bad = small_service(1, 0.1);
  bad.tenants = 0;
  EXPECT_THROW(Service{bad}, std::invalid_argument);
}

TEST(Service, ReportCarriesTotalsAndWindowRows) {
  const ServiceConfig config = small_service(4, 0.15);
  Service service(config);
  const ServiceResult r = service.run();
  const std::string json = sla_report_json(config, r);

  EXPECT_NE(json.find("\"schema_version\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"arrivals\": \"poisson:rate=0.15\""),
            std::string::npos);
  EXPECT_NE(json.find("\"jobs_generated\": " +
                      std::to_string(r.jobs_generated)),
            std::string::npos);
  EXPECT_NE(json.find("\"cum_p99_wait_s\""), std::string::npos);
  // One results row per window, keyed by the window index as "seed".
  for (const auto& w : r.windows) {
    EXPECT_NE(json.find("\"seed\": " + std::to_string(w.index)),
              std::string::npos);
  }
}

}  // namespace
}  // namespace phisched::cluster
