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

const JobRecord& Schedd::submit(JobId id, classad::ClassAd ad) {
  const bool added = by_id_.emplace(id, table_.size()).second;
  PHISCHED_REQUIRE(added, "submit: duplicate job id");
  JobRecord& rec = table_.emplace_back();
  rec.id = id;
  rec.ad = std::move(ad);
  rec.submit_time = sim_.now();
  rec.seq_ = table_.size() - 1;
  live_.push_back(&rec);
  return rec;
}

void Schedd::attach_telemetry(obs::Recorder& recorder,
                              const std::string& prefix) {
  obs_.rec = &recorder;
  obs_.prefix = prefix;
  auto& m = recorder.metrics();
  m.counter(prefix + ".jobs_submitted",
            [this] { return static_cast<std::uint64_t>(table_.size()); });
  m.counter(prefix + ".jobs_completed",
            [this] { return static_cast<std::uint64_t>(completed_); });
  m.counter(prefix + ".jobs_failed",
            [this] { return static_cast<std::uint64_t>(failed_); });
  m.counter(prefix + ".jobs_requeued", [this] { return requeued_; });
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

JobRecord& Schedd::mutable_record(const JobRecord& rec) {
  JobRecord* own = rec.seq_ < table_.size() ? &table_[rec.seq_] : nullptr;
  PHISCHED_REQUIRE(own == &rec, "schedd: record of another schedd");
  return *own;
}

void Schedd::qedit(JobId id, const std::string& attr, classad::ExprPtr expr) {
  JobRecord& rec = mutable_record(record(id));
  PHISCHED_REQUIRE(rec.state == JobState::kPending,
                   "qedit: job is no longer pending");
  rec.ad.insert(attr, std::move(expr));
  rec.autocluster = 0;
  rec.view_stale_ = true;
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

PendingJobs Schedd::pending() const {
  PendingJobs out;
  for (const JobRecord* rec : live_) {
    if (rec->state == JobState::kPending) out.push_back(rec);
  }
  return out;
}

const JobView& Schedd::decode_view(const JobRecord& rec) {
  JobRecord& own = mutable_record(rec);
  own.view_ = job_view(own.ad);
  own.view_stale_ = false;
  ++view_decodes_;
  return own.view_;
}

void Schedd::set_machine_side_names(AttrNames names) {
  if (names == machine_side_names_) return;
  machine_side_names_ = std::move(names);
  autoclusters_.clear();
  for (JobRecord& rec : table_) rec.autocluster = 0;
}

AutoclusterId Schedd::autocluster(const JobRecord& rec) {
  return rec.autocluster != 0 ? rec.autocluster
                              : classify(mutable_record(rec));
}

AutoclusterId Schedd::classify(JobRecord& rec) {
  // The significant names, each once: Requirements, the machine-side
  // names, then every MY. or bare reference of the job's
  // expressions for names already listed. Each name's expression decides
  // which names follow it, so signatures that agree expression by
  // expression also agree name by name, and comparing the expressions
  // in order compares the whole key. The views point into
  // machine_side_names_ and into the job's ad, which outlive this call.
  static constexpr std::string_view kRequirements = "Requirements";
  auto& names = classify_names_;
  auto& exprs = classify_exprs_;
  names.clear();
  exprs.clear();
  const auto add = [&names](std::uint64_t hash, std::string_view name) {
    for (const auto& [h, n] : names) {
      if (h == hash && classad::iequals(n, name)) return;
    }
    names.emplace_back(hash, name);
  };
  add(classad::name_hash(kRequirements), kRequirements);
  for (const auto& [hash, name] : machine_side_names_) add(hash, name);

  std::uint64_t key = 0;
  for (std::size_t i = 0; i < names.size(); ++i) {
    const classad::Expr* expr = rec.ad.find(names[i].first, names[i].second);
    key = (key ^ (expr != nullptr ? classad::expr_hash(*expr) : 0)) *
          1099511628211ULL;
    if (expr != nullptr) {
      classad::for_each_reference(*expr, [&add](const classad::Expr& ref) {
        if (ref.scope != classad::AttrScope::kTarget) {
          add(ref.attr_hash, ref.attr);
        }
      });
    }
    exprs.push_back(expr);
  }

  const auto same = [](const classad::Expr* a, const classad::ExprPtr& b) {
    return a == nullptr ? b == nullptr
                        : b != nullptr && classad::same_expr(*a, *b);
  };
  const auto [first, last] = autoclusters_.equal_range(key);
  for (auto it = first; it != last; ++it) {
    if (std::equal(exprs.begin(), exprs.end(), it->second.signature.begin(),
                   it->second.signature.end(), same)) {
      return rec.autocluster = it->second.id;
    }
  }
  compact_autoclusters();
  Autocluster added{{}, next_autocluster_++};
  added.signature.reserve(names.size());
  for (const auto& [hash, name] : names) {
    added.signature.push_back(rec.ad.lookup(name));
  }
  rec.autocluster = added.id;
  autoclusters_.emplace(key, std::move(added));
  return rec.autocluster;
}

void Schedd::compact_autoclusters() {
  const std::size_t live = table_.size() - completed_ - failed_;
  if (autoclusters_.size() < 2 * live + 8) return;
  std::vector<AutoclusterId> held;
  for (const JobRecord* rec : live_) {
    if (rec->state != JobState::kCompleted &&
        rec->state != JobState::kFailed && rec->autocluster != 0) {
      held.push_back(rec->autocluster);
    }
  }
  std::sort(held.begin(), held.end());
  std::erase_if(autoclusters_, [&held](const auto& entry) {
    return !std::binary_search(held.begin(), held.end(), entry.second.id);
  });
}

const JobRecord& Schedd::record(JobId id) const {
  auto it = by_id_.find(id);
  PHISCHED_REQUIRE(it != by_id_.end(), "schedd: unknown job");
  return table_[it->second];
}

bool Schedd::known(JobId id) const { return by_id_.find(id) != by_id_.end(); }

void Schedd::mark_matched(const JobRecord& job, NodeId node) {
  JobRecord& rec = mutable_record(job);
  PHISCHED_REQUIRE(rec.state == JobState::kPending, "mark_matched: not pending");
  rec.state = JobState::kMatched;
  rec.node = node;
}

void Schedd::mark_running(const JobRecord& job) {
  JobRecord& rec = mutable_record(job);
  PHISCHED_REQUIRE(rec.state == JobState::kMatched, "mark_running: not matched");
  rec.state = JobState::kRunning;
  rec.start_time = sim_.now();
}

void Schedd::mark_completed(const JobRecord& job) {
  JobRecord& rec = mutable_record(job);
  PHISCHED_REQUIRE(rec.state == JobState::kRunning, "mark_completed: not running");
  rec.state = JobState::kCompleted;
  rec.finish_time = sim_.now();
  last_finish_ = sim_.now();
  ++completed_;
  retire_from_live();
  note_terminal(rec, "job_completed");
  if (on_terminal_) on_terminal_(rec);
}

void Schedd::mark_failed(const JobRecord& job) {
  JobRecord& rec = mutable_record(job);
  PHISCHED_REQUIRE(rec.state == JobState::kRunning ||
                       rec.state == JobState::kMatched,
                   "mark_failed: job not active");
  rec.state = JobState::kFailed;
  rec.finish_time = sim_.now();
  last_finish_ = sim_.now();
  ++failed_;
  retire_from_live();
  note_terminal(rec, "job_failed");
  if (on_terminal_) on_terminal_(rec);
}

void Schedd::requeue(const JobRecord& job, classad::ClassAd new_ad) {
  JobRecord& rec = mutable_record(job);
  PHISCHED_REQUIRE(rec.state == JobState::kRunning ||
                       rec.state == JobState::kMatched,
                   "requeue: job not active");
  rec.state = JobState::kPending;
  rec.node = -1;
  rec.start_time = -1.0;
  rec.ad = std::move(new_ad);
  rec.autocluster = 0;
  rec.view_stale_ = true;
  rec.retries += 1;
  ++requeued_;
}

void Schedd::release_match(const JobRecord& job) {
  JobRecord& rec = mutable_record(job);
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
