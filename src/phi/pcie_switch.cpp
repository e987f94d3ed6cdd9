#include "phi/pcie_switch.hpp"

#include <algorithm>
#include <limits>

#include "common/check.hpp"

namespace phisched::phi {

PcieSwitch::PcieSwitch(Simulator& sim, PcieSwitchConfig config,
                       std::string name)
    : sim_(sim), config_(config), name_(std::move(name)) {
  PHISCHED_REQUIRE(config_.bandwidth_mib_s > 0.0,
                   "PcieSwitch: bandwidth must be positive");
  busy_time_.reset(sim_.now(), 0.0);
}

void PcieSwitch::add_link(PcieLink& link) {
  PHISCHED_REQUIRE(enabled(), "PcieSwitch ", name_,
                   ": add_link on a disabled switch (link=", link.name(), ")");
  PHISCHED_REQUIRE(link.enabled(), "PcieSwitch ", name_, ": member link ",
                   link.name(), " must have contention enabled");
  PHISCHED_REQUIRE(link.uplink() == nullptr, "PcieSwitch ", name_, ": link ",
                   link.name(), " already routed through a switch");
  PHISCHED_REQUIRE(link.active_transfers() == 0, "PcieSwitch ", name_,
                   ": add_link with transfers in flight on ", link.name(),
                   " t=", sim_.now());
  PHISCHED_REQUIRE(std::find(links_.begin(), links_.end(), &link) ==
                       links_.end(),
                   "PcieSwitch ", name_, ": duplicate link ", link.name());
  link.uplink_ = this;
  links_.push_back(&link);
}

std::size_t PcieSwitch::active_transfers() const {
  std::size_t n = 0;
  for (const PcieLink* link : links_) n += link->active_transfers();
  return n;
}

double PcieSwitch::fair_share() const {
  const std::size_t n = active_transfers();
  if (n == 0) return std::numeric_limits<double>::infinity();
  return config_.bandwidth_mib_s / static_cast<double>(n);
}

double PcieSwitch::busy_fraction(SimTime until) const {
  return busy_time_.mean_until(until);
}

void PcieSwitch::attach_telemetry(obs::Recorder& recorder,
                                  const std::string& prefix) {
  obs_.rec = &recorder;
  obs_.prefix = prefix;
  obs::Registry& m = recorder.metrics();
  m.counter(prefix + ".bytes",
            [this] { return static_cast<std::uint64_t>(stats_.mib); });
  obs_.busy_frac = &m.series(prefix + ".busy_frac");
  obs_.queue_depth = &m.series(prefix + ".queue_depth");
  const std::size_t active = active_transfers();
  obs_.busy_frac->set(sim_.now(), active == 0 ? 0.0 : 1.0);
  obs_.queue_depth->set(sim_.now(), static_cast<double>(active));
}

void PcieSwitch::settle_links() {
  for (PcieLink* link : links_) link->settle();
  busy_time_.advance_to(sim_.now());
}

void PcieSwitch::reconcile_links() {
  const std::size_t active = active_transfers();
  busy_time_.set(sim_.now(), active == 0 ? 0.0 : 1.0);
  if (obs_.rec != nullptr) {
    obs_.busy_frac->set(sim_.now(), active == 0 ? 0.0 : 1.0);
    obs_.queue_depth->set(sim_.now(), static_cast<double>(active));
  }
  for (PcieLink* link : links_) link->reconcile();
}

void PcieSwitch::on_transfer_begin(JobId job, MiB mib, XferDir dir) {
  if (obs_.rec == nullptr) return;
  obs_.rec->event(sim_.now(), "pcie_switch_xfer_begin",
                  {{"switch", obs_.prefix},
                   {"job", std::to_string(job)},
                   {"dir", xfer_dir_name(dir)},
                   {"mib", std::to_string(mib)}});
}

void PcieSwitch::on_transfer_end(JobId job, MiB mib, XferDir dir) {
  stats_.transfers += 1;
  stats_.mib += mib;
  if (obs_.rec == nullptr) return;
  obs_.rec->event(sim_.now(), "pcie_switch_xfer_end",
                  {{"switch", obs_.prefix},
                   {"job", std::to_string(job)},
                   {"dir", xfer_dir_name(dir)},
                   {"mib", std::to_string(mib)}});
}

void PcieSwitch::on_transfer_cancelled() { stats_.cancelled += 1; }

}  // namespace phisched::phi
