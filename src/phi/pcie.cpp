#include "phi/pcie.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/check.hpp"
#include "phi/pcie_switch.hpp"

namespace phisched::phi {

const char* xfer_dir_name(XferDir dir) {
  switch (dir) {
    case XferDir::kIn: return "in";
    case XferDir::kOut: return "out";
  }
  return "?";
}

PcieLink::PcieLink(Simulator& sim, PcieLinkConfig config, std::string name)
    : sim_(sim), config_(config), name_(std::move(name)) {
  PHISCHED_REQUIRE(config_.bandwidth_mib_s > 0.0,
                   "PcieLink: bandwidth must be positive");
  PHISCHED_REQUIRE(config_.latency_s >= 0.0,
                   "PcieLink: latency must be non-negative");
  PHISCHED_REQUIRE(config_.output_fraction >= 0.0,
                   "PcieLink: output fraction must be non-negative");
  busy_time_.reset(sim_.now(), 0.0);
  last_settle_ = sim_.now();
}

void PcieLink::attach_telemetry(obs::Recorder& recorder,
                                const std::string& prefix) {
  obs_.rec = &recorder;
  obs_.prefix = prefix;
  obs::Registry& m = recorder.metrics();
  m.counter(prefix + ".bytes_in",
            [this] { return static_cast<std::uint64_t>(stats_.mib_in); });
  m.counter(prefix + ".bytes_out",
            [this] { return static_cast<std::uint64_t>(stats_.mib_out); });
  obs_.busy_frac = &m.series(prefix + ".busy_frac");
  obs_.queue_depth = &m.series(prefix + ".transfer_queue_depth");
  obs_.busy_frac->set(sim_.now(), transfers_.empty() ? 0.0 : 1.0);
  obs_.queue_depth->set(sim_.now(), static_cast<double>(transfers_.size()));
}

double PcieLink::busy_fraction(SimTime until) const {
  return busy_time_.mean_until(until);
}

void PcieLink::note_depth() {
  if (obs_.rec == nullptr) return;
  obs_.busy_frac->set(sim_.now(), transfers_.empty() ? 0.0 : 1.0);
  obs_.queue_depth->set(sim_.now(), static_cast<double>(transfers_.size()));
}

XferId PcieLink::start_transfer(JobId job, MiB mib, XferDir dir,
                                Callback on_done) {
  PHISCHED_REQUIRE(enabled(), "PcieLink ", name_,
                   ": start_transfer on a disabled link (job=", job, ")");
  PHISCHED_REQUIRE(mib >= 0, "PcieLink ", name_,
                   ": negative transfer size (job=", job, " mib=", mib, ")");

  settle_all();

  const XferId id = next_id_++;
  Transfer t;
  t.id = id;
  t.job = job;
  t.dir = dir;
  t.mib = mib;
  // Latency as equivalent wire time: an uncontended transfer takes
  // latency_s + mib/bandwidth, and the latency share dilates under
  // contention exactly like the payload.
  t.wire_mib = static_cast<double>(mib) +
               config_.latency_s * config_.bandwidth_mib_s;
  t.remaining_mib = t.wire_mib;
  t.on_done = std::move(on_done);
  transfers_.emplace(id, std::move(t));

  if (obs_.rec != nullptr) {
    obs_.rec->event(sim_.now(), "pcie_xfer_begin",
                    {{"link", obs_.prefix},
                     {"job", std::to_string(job)},
                     {"dir", xfer_dir_name(dir)},
                     {"mib", std::to_string(mib)}});
  }
  if (uplink_ != nullptr) uplink_->on_transfer_begin(job, mib, dir);

  reconcile_all();
  return id;
}

void PcieLink::cancel_job(JobId job) {
  settle_all();
  bool changed = false;
  for (auto it = transfers_.begin(); it != transfers_.end();) {
    if (it->second.job == job) {
      it->second.completion.cancel();
      stats_.cancelled += 1;
      if (uplink_ != nullptr) uplink_->on_transfer_cancelled();
      it = transfers_.erase(it);
      changed = true;
    } else {
      ++it;
    }
  }
  if (changed) reconcile_all();
}

double PcieLink::current_rate() const {
  if (transfers_.empty()) return 0.0;
  const double share =
      config_.bandwidth_mib_s / static_cast<double>(transfers_.size());
  return uplink_ == nullptr ? share : std::min(share, uplink_->fair_share());
}

void PcieLink::settle() {
  const SimTime now = sim_.now();
  const SimTime elapsed = now - last_settle_;
  PHISCHED_DCHECK(elapsed >= 0.0, "PcieLink ", name_,
                  ": settle moved backwards (now=", now,
                  " last_settle=", last_settle_, ")");
  if (elapsed > 0.0 && !transfers_.empty()) {
    const double rate = current_rate();
    for (auto& [_, t] : transfers_) {
      // No clamp at zero: float drift must stay visible so finish() can
      // check it against a tolerance instead of silently absorbing it.
      t.remaining_mib -= elapsed * rate;
    }
  }
  busy_time_.advance_to(now);
  last_settle_ = now;
}

void PcieLink::settle_all() {
  if (uplink_ != nullptr) {
    uplink_->settle_links();
  } else {
    settle();
  }
}

void PcieLink::reconcile() {
  busy_time_.set(sim_.now(), transfers_.empty() ? 0.0 : 1.0);
  note_depth();
  if (transfers_.empty()) return;
  const double rate = current_rate();
  PHISCHED_DCHECK(rate > 0.0, "PcieLink ", name_,
                  ": non-positive fair-share rate ", rate, " with ",
                  transfers_.size(), " transfers in flight t=", sim_.now());
  for (auto& [id, t] : transfers_) {
    t.completion.cancel();
    // Drift may leave a completing transfer marginally negative; never
    // schedule into the past.
    const SimTime eta = std::max(0.0, t.remaining_mib) / rate;
    const XferId xid = id;
    t.completion = sim_.schedule_in(eta, [this, xid] { finish(xid); });
  }
}

void PcieLink::reconcile_all() {
  if (uplink_ != nullptr) {
    uplink_->reconcile_links();
  } else {
    reconcile();
  }
}

void PcieLink::finish(XferId id) {
  auto it = transfers_.find(id);
  PHISCHED_CHECK(it != transfers_.end(), "PcieLink ", name_,
                 ": unknown transfer id=", id, " t=", sim_.now());
  settle_all();
  // Relative completion tolerance: each settle() subtracts at double
  // precision, so after many re-reconciles (long, heavily contended
  // runs) the residue scales with the transfer's wire size, not with an
  // absolute constant. 1e-9 relative leaves ~10x headroom over the
  // worst accumulation a million settles can produce.
  const double tolerance = 1e-9 * std::max(1.0, it->second.wire_mib);
  PHISCHED_CHECK(std::fabs(it->second.remaining_mib) <= tolerance,
                 "PcieLink ", name_, ": transfer id=", id,
                 " job=", it->second.job, " completed with ",
                 it->second.remaining_mib, " wire-MiB remaining (tolerance=",
                 tolerance, ") t=", sim_.now());

  const Transfer done = std::move(it->second);
  transfers_.erase(it);

  switch (done.dir) {
    case XferDir::kIn:
      stats_.transfers_in += 1;
      stats_.mib_in += done.mib;
      break;
    case XferDir::kOut:
      stats_.transfers_out += 1;
      stats_.mib_out += done.mib;
      break;
  }
  if (obs_.rec != nullptr) {
    obs_.rec->event(sim_.now(), "pcie_xfer_end",
                    {{"link", obs_.prefix},
                     {"job", std::to_string(done.job)},
                     {"dir", xfer_dir_name(done.dir)},
                     {"mib", std::to_string(done.mib)}});
  }
  if (uplink_ != nullptr) uplink_->on_transfer_end(done.job, done.mib, done.dir);

  reconcile_all();
  if (done.on_done) done.on_done();
}

}  // namespace phisched::phi
