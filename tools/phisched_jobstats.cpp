// phisched_jobstats — inspect a job-set file (docs/jobset-format.md):
// per-template breakdown, resource histograms, duty cycles, declaration
// truthfulness, and schedulability on one node of a fleet (--devices, the
// phisched_cli grammar; default one 5110P).
//
//   phisched_jobstats my.jobs --devices 2x7120P
//   phisched_cli --workload normal --jobs 400 --save-jobs - | ...
#include <algorithm>
#include <cstdio>
#include <map>

#include "cluster/harness.hpp"
#include "common/args.hpp"
#include "common/histogram.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "phi/capability.hpp"
#include "workload/io.hpp"
#include "workload/jobset.hpp"

int main(int argc, char** argv) {
  using namespace phisched;
  try {
    const ArgParser args(argc, argv);
    if (args.has("help") || args.positional().size() != 1) {
      std::printf("usage: %s <jobset-file> [--devices SPEC]\n",
                  args.program().c_str());
      return args.has("help") ? 0 : 2;
    }
    for (const std::string& name : args.unknown({"help", "devices"})) {
      std::fprintf(stderr, "error: unknown flag --%s\n", name.c_str());
      return 2;
    }
    // A job is unschedulable when the harness's fit check, the
    // precondition its submit() enforces, refuses it on this fleet.
    cluster::ExperimentConfig fleet;
    fleet.node_count = 1;
    fleet.devices = phi::parse_device_spec(args.get_or("devices", "1"));
    const cluster::Harness harness(fleet);
    const workload::JobSet jobs = workload::load_jobset(args.positional()[0]);
    if (jobs.empty()) {
      std::printf("empty job set\n");
      return 0;
    }

    MiB max_memory = 0;
    ThreadCount max_threads = 0;
    for (const phi::DeviceCapability& card : fleet.devices) {
      max_memory = std::max(max_memory, card.hw.usable_memory_mib());
      max_threads = std::max(max_threads, card.hw.hw_threads());
    }
    struct TemplateStats {
      std::size_t count = 0;
      Summary memory;
      Summary threads;
      Summary duration;
      Summary duty;
    };
    std::map<std::string, TemplateStats> per_template;
    Summary memory;
    Summary threads;
    Summary duration;
    Summary duty;
    Histogram mem_hist(0.0, static_cast<double>(max_memory), 10);
    Histogram thread_hist(0.0, static_cast<double>(max_threads) + 1.0, 8);
    std::size_t untruthful = 0;
    std::size_t unschedulable = 0;
    std::size_t dynamic = 0;

    for (const workload::JobSpec& job : jobs) {
      const std::string key =
          job.template_name.empty() ? "(none)" : job.template_name;
      TemplateStats& t = per_template[key];
      t.count += 1;
      const auto mem = static_cast<double>(job.mem_req_mib);
      const auto thr = static_cast<double>(job.threads_req);
      t.memory.add(mem);
      t.threads.add(thr);
      t.duration.add(job.profile.total_duration());
      t.duty.add(job.profile.duty_cycle());
      memory.add(mem);
      threads.add(thr);
      duration.add(job.profile.total_duration());
      duty.add(job.profile.duty_cycle());
      mem_hist.add(mem);
      thread_hist.add(thr);
      if (!job.declaration_truthful()) ++untruthful;
      if (harness.unfit_reason(job) != nullptr) ++unschedulable;
      if (job.submit_time > 0.0) ++dynamic;
    }

    std::printf("%zu jobs (%zu dynamic arrivals)\n\n", jobs.size(), dynamic);

    AsciiTable table({"Template", "Jobs", "Mem (MiB, mean/max)",
                      "Threads (mean/max)", "Duration (s, mean)",
                      "Duty cycle (mean)"});
    for (const auto& [name, t] : per_template) {
      table.add_row({name, std::to_string(t.count),
                     AsciiTable::cell(t.memory.mean(), 0) + " / " +
                         AsciiTable::cell(t.memory.max(), 0),
                     AsciiTable::cell(t.threads.mean(), 0) + " / " +
                         AsciiTable::cell(t.threads.max(), 0),
                     AsciiTable::cell(t.duration.mean(), 1),
                     AsciiTable::cell(t.duty.mean(), 2)});
    }
    table.add_row({"TOTAL", std::to_string(jobs.size()),
                   AsciiTable::cell(memory.mean(), 0) + " / " +
                       AsciiTable::cell(memory.max(), 0),
                   AsciiTable::cell(threads.mean(), 0) + " / " +
                       AsciiTable::cell(threads.max(), 0),
                   AsciiTable::cell(duration.mean(), 1),
                   AsciiTable::cell(duty.mean(), 2)});
    std::printf("%s\n", table.to_string().c_str());

    std::printf("declared memory (MiB):\n%s\n", mem_hist.ascii(40).c_str());
    std::printf("declared threads:\n%s\n", thread_hist.ascii(40).c_str());

    std::printf("serial work content: %.0f s\n",
                workload::total_serial_duration(jobs));
    std::printf("untruthful declarations (would be container-killed): %zu\n",
                untruthful);
    std::printf(
        "unschedulable on one node of %s (largest card %lld MiB / %d "
        "threads): %zu\n",
        phi::device_spec_to_string(fleet.devices).c_str(),
        static_cast<long long>(max_memory), max_threads, unschedulable);
    return unschedulable == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
