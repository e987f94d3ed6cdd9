// The schedd: mini-Condor's job queue.
//
// Jobs are submitted as ClassAds, examined by the negotiator in FIFO
// order, and may be edited in place with qedit (the mechanism the paper's
// add-on uses, via condor_qedit, to pin jobs to nodes). The schedd also
// records the lifecycle timestamps experiments report on, and groups jobs
// into autoclusters: jobs that must match the same machines, so the
// negotiator scans the machines once per group (docs/negotiation.md).
//
// One job table holds every record in submission order, and records never
// move. Each record caches its decoded JobView, which a submit, qedit or
// requeue marks stale and view() decodes on the next read; the
// negotiation cycle carries record pointers and reads the views, so only
// the boundary (qedit, record(id)) looks a job up by id.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "classad/classad.hpp"
#include "common/types.hpp"
#include "condor/ads.hpp"
#include "obs/recorder.hpp"
#include "sim/simulator.hpp"

namespace phisched::condor {

enum class JobState {
  kPending,   ///< in the queue, waiting to be matched
  kMatched,   ///< matched to a node, dispatch in flight
  kRunning,   ///< starter spawned the job on a node
  kCompleted, ///< finished normally
  kFailed,    ///< killed (OOM / container violation)
};

[[nodiscard]] const char* job_state_name(JobState s);

/// Jobs with equal autocluster ids match the same machines against any
/// snapshot (see Schedd::autocluster). 0 means "not classified yet".
using AutoclusterId = std::uint64_t;

/// Attribute names with their classad::name_hash.
using AttrNames = std::vector<std::pair<std::uint64_t, std::string>>;

struct JobRecord {
  JobId id = 0;
  classad::ClassAd ad;
  JobState state = JobState::kPending;
  NodeId node = -1;  ///< where it was matched/ran
  SimTime submit_time = 0.0;
  SimTime start_time = -1.0;
  SimTime finish_time = -1.0;
  int retries = 0;  ///< times the job was requeued after a failure
  /// Cached by Schedd::autocluster; reset to 0 by qedit and requeue.
  AutoclusterId autocluster = 0;

 private:
  friend class Schedd;
  /// Position in the schedd's table: the submission order.
  std::size_t seq_ = 0;
  /// Read through Schedd::view only, which decodes it when stale.
  JobView view_;
  bool view_stale_ = true;
};

/// Pending records in negotiation order. The pointers stay valid for the
/// schedd's lifetime.
using PendingJobs = std::vector<const JobRecord*>;

class Schedd {
 public:
  explicit Schedd(Simulator& sim) : sim_(sim) {}

  Schedd(const Schedd&) = delete;
  Schedd& operator=(const Schedd&) = delete;

  /// Enqueues a job ad and returns its record. `id` must be unique; FIFO
  /// order is submission order.
  const JobRecord& submit(JobId id, classad::ClassAd ad);

  /// condor_qedit: replaces one attribute of a PENDING job's ad.
  void qedit(JobId id, const std::string& attr, classad::ExprPtr expr);
  void qedit_expr(JobId id, const std::string& attr,
                  const std::string& expr_source);

  /// Pending records in FIFO (submission) order.
  [[nodiscard]] PendingJobs pending() const;

  /// The record's decoded ad, job_view(rec.ad), decoded here on the first
  /// read after a submit, qedit or requeue and cached until the next.
  [[nodiscard]] const JobView& view(const JobRecord& rec) {
    return rec.view_stale_ ? decode_view(rec) : rec.view_;
  }

  /// Views decoded so far. Not exported as telemetry.
  [[nodiscard]] std::uint64_t view_decodes() const { return view_decodes_; }

  /// The job-side names the machine ads reach: every TARGET.x and bare x
  /// in any of their expressions. Autocluster ids cover the job's value
  /// of each, so a different list reclassifies every job.
  void set_machine_side_names(AttrNames names);

  /// The job's autocluster id, assigned the first time it is asked for
  /// after a submit, qedit or requeue. Two jobs share an id only when
  /// their expressions are structurally identical (classad::same_expr)
  /// for Requirements, every machine-side name, and every name those
  /// reach through MY. or bare references, followed transitively.
  /// Together these are everything a two-way match reads from the job,
  /// so jobs that share an id match the same machines against any
  /// snapshot.
  [[nodiscard]] AutoclusterId autocluster(const JobRecord& rec);

  /// Distinct autoclusters held, live jobs' and not yet compacted ones.
  [[nodiscard]] std::size_t autocluster_count() const {
    return autoclusters_.size();
  }

  [[nodiscard]] const JobRecord& record(JobId id) const;
  [[nodiscard]] bool known(JobId id) const;

  /// Calls `fn` on every record, in JobId order.
  template <typename Fn>
  void for_each_by_id(Fn&& fn) const {
    for (const auto& [id, seq] : by_id_) fn(table_[seq]);
  }

  // Lifecycle transitions (driven by negotiator / starter / node). Each
  // takes one of this schedd's records; the JobId forms look it up.
  void mark_matched(const JobRecord& rec, NodeId node);
  void mark_running(const JobRecord& rec);
  void mark_completed(const JobRecord& rec);
  void mark_failed(const JobRecord& rec);
  /// Returns a matched-but-not-running job to the pending queue (its
  /// dispatch was refused).
  void release_match(const JobRecord& rec);
  /// Requeues a killed job for another attempt instead of failing it
  /// (Condor's on-failure retry): the job returns to the pending queue
  /// with a fresh ad (e.g. a boosted memory declaration) and its retry
  /// counter incremented. Does NOT count as a terminal transition.
  void requeue(const JobRecord& rec, classad::ClassAd new_ad);

  void mark_matched(JobId id, NodeId node) { mark_matched(record(id), node); }
  void mark_running(JobId id) { mark_running(record(id)); }
  void mark_completed(JobId id) { mark_completed(record(id)); }
  void mark_failed(JobId id) { mark_failed(record(id)); }
  void release_match(JobId id) { release_match(record(id)); }
  void requeue(JobId id, classad::ClassAd new_ad) {
    requeue(record(id), std::move(new_ad));
  }

  [[nodiscard]] std::size_t submitted_count() const { return table_.size(); }
  [[nodiscard]] std::size_t completed_count() const { return completed_; }
  [[nodiscard]] std::size_t failed_count() const { return failed_; }
  [[nodiscard]] std::size_t pending_count() const;
  /// True when every submitted job reached a terminal state.
  [[nodiscard]] bool drained() const {
    return completed_ + failed_ == table_.size();
  }

  /// Invoked after every terminal transition (completed or failed).
  void set_on_terminal(std::function<void(const JobRecord&)> fn) {
    on_terminal_ = std::move(fn);
  }

  /// Time the last job reached a terminal state — the makespan once
  /// drained() holds.
  [[nodiscard]] SimTime last_finish_time() const { return last_finish_; }

  /// Registers queue-lifecycle instruments under `prefix` (e.g.
  /// "condor.schedd"): submit/complete/fail/requeue counters (bound to
  /// the table's own counts) plus a terminal event per job carrying its
  /// turnaround time.
  void attach_telemetry(obs::Recorder& recorder, const std::string& prefix);

 private:
  /// The attached recorder and name prefix; null until attach_telemetry.
  struct Telemetry {
    obs::Recorder* rec = nullptr;
    std::string prefix;
  };

  void note_terminal(const JobRecord& rec, const char* type);
  /// Counts one more terminal job in live_ and compacts live_ once
  /// terminal jobs make up more than half of it.
  void retire_from_live();

  /// The table's own, writable copy of `rec`, which must be one of ours.
  JobRecord& mutable_record(const JobRecord& rec);
  const JobView& decode_view(const JobRecord& rec);

  /// One autocluster: the job's expression (or null) for each
  /// significant name, in the order classify() discovers the names.
  struct Autocluster {
    std::vector<classad::ExprPtr> signature;
    AutoclusterId id = 0;
  };
  AutoclusterId classify(JobRecord& rec);
  /// Drops autoclusters no live job holds, once they outnumber live jobs.
  void compact_autoclusters();

  Simulator& sim_;
  /// Every record in submission order; a deque never moves its elements.
  std::deque<JobRecord> table_;
  /// JobId -> position in table_, for the lookups at the boundary.
  std::map<JobId, std::size_t> by_id_;
  /// Non-terminal jobs in submission order, plus terminal ones not yet
  /// compacted away: walks cost O(live jobs), not O(history). A released
  /// or requeued job keeps its place.
  std::vector<const JobRecord*> live_;
  std::size_t terminal_in_live_ = 0;
  std::size_t completed_ = 0;
  std::size_t failed_ = 0;
  std::uint64_t requeued_ = 0;
  SimTime last_finish_ = 0.0;
  std::function<void(const JobRecord&)> on_terminal_;
  Telemetry obs_;
  AttrNames machine_side_names_;
  /// Keyed by the hash of the signature's expressions.
  std::multimap<std::uint64_t, Autocluster> autoclusters_;
  AutoclusterId next_autocluster_ = 1;
  std::uint64_t view_decodes_ = 0;
  /// classify()'s working lists, kept so a call allocates nothing unless
  /// it adds an autocluster.
  std::vector<std::pair<std::uint64_t, std::string_view>> classify_names_;
  std::vector<const classad::Expr*> classify_exprs_;
};

}  // namespace phisched::condor
