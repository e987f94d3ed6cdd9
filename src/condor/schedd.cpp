#include "condor/schedd.hpp"

#include <algorithm>

#include "classad/parser.hpp"
#include "common/check.hpp"
#include "common/json.hpp"

namespace phisched::condor {

const char* job_state_name(JobState s) {
  switch (s) {
    case JobState::kPending: return "pending";
    case JobState::kMatched: return "matched";
    case JobState::kRunning: return "running";
    case JobState::kCompleted: return "completed";
    case JobState::kFailed: return "failed";
  }
  return "?";
}

void Schedd::submit(JobId id, classad::ClassAd ad) {
  PHISCHED_REQUIRE(jobs_.find(id) == jobs_.end(), "submit: duplicate job id");
  JobRecord rec;
  rec.id = id;
  rec.ad = std::move(ad);
  rec.submit_time = sim_.now();
  live_.push_back(&jobs_.emplace(id, std::move(rec)).first->second);
  if (obs_.rec != nullptr) obs_.jobs_submitted->inc();
}

void Schedd::attach_telemetry(obs::Recorder& recorder,
                              const std::string& prefix) {
  obs_.rec = &recorder;
  obs_.prefix = prefix;
  auto& m = recorder.metrics();
  obs_.jobs_submitted = &m.counter(prefix + ".jobs_submitted");
  obs_.jobs_completed = &m.counter(prefix + ".jobs_completed");
  obs_.jobs_failed = &m.counter(prefix + ".jobs_failed");
  obs_.jobs_requeued = &m.counter(prefix + ".jobs_requeued");
}

void Schedd::note_terminal(const JobRecord& rec, const char* type) {
  if (obs_.rec == nullptr) return;
  const SimTime turnaround = rec.finish_time - rec.submit_time;
  // The event type flows in as a parameter, so the schema extractor
  // cannot see the names; declare them for the lint's telemetry pass.
  // phisched-lint: emits(event job_completed, event job_failed)
  obs_.rec->event(sim_.now(), type,
                  {{"job", std::to_string(rec.id)},
                   {"node", std::to_string(rec.node)},
                   {"retries", std::to_string(rec.retries)},
                   {"turnaround_s", json_number(turnaround)}});
}

JobRecord& Schedd::mutable_record(JobId id) {
  auto it = jobs_.find(id);
  PHISCHED_REQUIRE(it != jobs_.end(), "schedd: unknown job");
  return it->second;
}

void Schedd::qedit(JobId id, const std::string& attr, classad::ExprPtr expr) {
  JobRecord& rec = mutable_record(id);
  PHISCHED_REQUIRE(rec.state == JobState::kPending,
                   "qedit: job is no longer pending");
  rec.ad.insert(attr, std::move(expr));
}

void Schedd::qedit_expr(JobId id, const std::string& attr,
                        const std::string& expr_source) {
  qedit(id, attr, classad::parse(expr_source));
}

void Schedd::retire_from_live() {
  if (2 * ++terminal_in_live_ <= live_.size()) return;
  std::erase_if(live_, [](const JobRecord* rec) {
    return rec->state == JobState::kCompleted ||
           rec->state == JobState::kFailed;
  });
  terminal_in_live_ = 0;
}

std::vector<JobId> Schedd::pending() const {
  std::vector<JobId> out;
  for (const JobRecord* rec : live_) {
    if (rec->state == JobState::kPending) out.push_back(rec->id);
  }
  return out;
}

const JobRecord& Schedd::record(JobId id) const {
  auto it = jobs_.find(id);
  PHISCHED_REQUIRE(it != jobs_.end(), "schedd: unknown job");
  return it->second;
}

bool Schedd::known(JobId id) const { return jobs_.find(id) != jobs_.end(); }

void Schedd::mark_matched(JobId id, NodeId node) {
  JobRecord& rec = mutable_record(id);
  PHISCHED_REQUIRE(rec.state == JobState::kPending, "mark_matched: not pending");
  rec.state = JobState::kMatched;
  rec.node = node;
}

void Schedd::mark_running(JobId id) {
  JobRecord& rec = mutable_record(id);
  PHISCHED_REQUIRE(rec.state == JobState::kMatched, "mark_running: not matched");
  rec.state = JobState::kRunning;
  rec.start_time = sim_.now();
}

void Schedd::mark_completed(JobId id) {
  JobRecord& rec = mutable_record(id);
  PHISCHED_REQUIRE(rec.state == JobState::kRunning, "mark_completed: not running");
  rec.state = JobState::kCompleted;
  rec.finish_time = sim_.now();
  last_finish_ = sim_.now();
  ++completed_;
  retire_from_live();
  if (obs_.rec != nullptr) {
    obs_.jobs_completed->inc();
    note_terminal(rec, "job_completed");
  }
  if (on_terminal_) on_terminal_(rec);
}

void Schedd::mark_failed(JobId id) {
  JobRecord& rec = mutable_record(id);
  PHISCHED_REQUIRE(rec.state == JobState::kRunning ||
                       rec.state == JobState::kMatched,
                   "mark_failed: job not active");
  rec.state = JobState::kFailed;
  rec.finish_time = sim_.now();
  last_finish_ = sim_.now();
  ++failed_;
  retire_from_live();
  if (obs_.rec != nullptr) {
    obs_.jobs_failed->inc();
    note_terminal(rec, "job_failed");
  }
  if (on_terminal_) on_terminal_(rec);
}

void Schedd::requeue(JobId id, classad::ClassAd new_ad) {
  JobRecord& rec = mutable_record(id);
  PHISCHED_REQUIRE(rec.state == JobState::kRunning ||
                       rec.state == JobState::kMatched,
                   "requeue: job not active");
  rec.state = JobState::kPending;
  rec.node = -1;
  rec.start_time = -1.0;
  rec.ad = std::move(new_ad);
  rec.retries += 1;
  if (obs_.rec != nullptr) obs_.jobs_requeued->inc();
}

void Schedd::release_match(JobId id) {
  JobRecord& rec = mutable_record(id);
  PHISCHED_REQUIRE(rec.state == JobState::kMatched, "release_match: not matched");
  rec.state = JobState::kPending;
  rec.node = -1;
}

std::size_t Schedd::pending_count() const {
  return static_cast<std::size_t>(
      std::count_if(live_.begin(), live_.end(), [](const JobRecord* rec) {
        return rec->state == JobState::kPending;
      }));
}

}  // namespace phisched::condor
