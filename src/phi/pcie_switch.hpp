// Host-side PCIe switch shared by every card on one node.
//
// phi::PcieLink models each card's own link, but on a real node all the
// cards hang off a single host-side PCIe switch (the root complex's
// uplink), so transfers contend across cards as well as within one.
// Fang et al.'s empirical KNC study and Dokulil et al.'s hybrid-execution
// measurements both show aggregate host-side bandwidth saturating well
// below N× a single card's link — behaviour a flat per-card model cannot
// produce.
//
// The switch uses the same settle/reconcile processor-sharing structure
// as PcieLink: each in-flight transfer on the node progresses at
//
//   min(card_bandwidth / transfers_on_card, switch_bandwidth / transfers_on_node)
//
// re-evaluated whenever any transfer starts, finishes, or is cancelled
// anywhere on the node. With a single card (or few transfers) the card
// link is the binding constraint and timings are identical to the flat
// model; as cards-per-node grows, the shared uplink saturates and
// per-card throughput degrades (bench_pcie_hier sweeps this).
//
// OFF by default (PcieSwitchConfig::enabled = false): all calibrated
// golden/figure/table outputs stay bit-identical until a harness opts in
// via ExperimentConfig::pcie_switch (CLI: --pcie-switch).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "obs/recorder.hpp"
#include "phi/pcie.hpp"
#include "sim/simulator.hpp"

namespace phisched::phi {

struct PcieSwitchConfig {
  /// Master switch. Off leaves every member link flat (per-card fair
  /// share only), reproducing the calibrated behaviour bit-identically.
  bool enabled = false;
  /// Aggregate host-side uplink bandwidth shared by all of the node's
  /// cards. 2× one KNC card's effective link rate by default: a host
  /// whose root-complex uplink stops scaling past two concurrent cards,
  /// the saturation shape Fang et al. measure.
  double bandwidth_mib_s = 2.0 * 6144.0;
};

struct PcieSwitchStats {
  std::uint64_t transfers = 0;   ///< transfers delivered through the switch
  MiB mib = 0;                   ///< MiB delivered (both directions)
  std::uint64_t cancelled = 0;   ///< transfers dropped by a job kill
};

/// One node's shared host-side uplink. Member links register via
/// add_link(); from then on every start/finish/cancel on any member
/// settles and reconciles the whole node so cross-card fair shares stay
/// exact.
class PcieSwitch {
 public:
  PcieSwitch(Simulator& sim, PcieSwitchConfig config,
             std::string name = "pcie_switch");

  PcieSwitch(const PcieSwitch&) = delete;
  PcieSwitch& operator=(const PcieSwitch&) = delete;

  [[nodiscard]] bool enabled() const { return config_.enabled; }
  [[nodiscard]] const PcieSwitchConfig& config() const { return config_; }
  [[nodiscard]] const PcieSwitchStats& stats() const { return stats_; }
  [[nodiscard]] const std::string& name() const { return name_; }

  /// Routes `link` through this switch. The link must be enabled, idle,
  /// and not already routed through a switch.
  void add_link(PcieLink& link);

  [[nodiscard]] std::size_t link_count() const { return links_.size(); }

  /// In-flight transfers across every member link.
  [[nodiscard]] std::size_t active_transfers() const;

  /// Bandwidth available to each transfer through the switch right now
  /// (uplink fair share); +inf while the switch is idle.
  [[nodiscard]] double fair_share() const;

  /// Mean uplink occupancy (fraction of time with >= 1 in-flight
  /// transfer anywhere on the node) over [0, until].
  [[nodiscard]] double busy_fraction(SimTime until) const;

  /// Registers the switch's instruments under `prefix` (e.g.
  /// "phi.node0.pcie_switch"): busy_frac and queue_depth series, a bytes
  /// counter (stats().mib: MiB delivered, both directions), and
  /// pcie_switch_xfer_begin/end events.
  void attach_telemetry(obs::Recorder& recorder, const std::string& prefix);

 private:
  friend class PcieLink;

  /// Integrates every member link's progress (and the uplink occupancy
  /// integral) up to now() at the rates in effect since the last change.
  void settle_links();
  /// Recomputes every member link's per-transfer rate and completion
  /// events, plus the switch's own gauges, after any change on the node.
  void reconcile_links();

  /// Membership-change hooks called by member links.
  void on_transfer_begin(JobId job, MiB mib, XferDir dir);
  void on_transfer_end(JobId job, MiB mib, XferDir dir);
  void on_transfer_cancelled();

  /// Cached instrument pointers; all null until attach_telemetry.
  struct Telemetry {
    obs::Recorder* rec = nullptr;
    std::string prefix;
    obs::TimeSeriesGauge* busy_frac = nullptr;
    obs::TimeSeriesGauge* queue_depth = nullptr;
  };

  Simulator& sim_;
  PcieSwitchConfig config_;
  std::string name_;
  std::vector<PcieLink*> links_;
  TimeWeighted busy_time_;  ///< 1 while any member transfer is in flight
  PcieSwitchStats stats_;
  Telemetry obs_;
};

}  // namespace phisched::phi
