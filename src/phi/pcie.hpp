// Discrete-event model of one Xeon Phi's PCIe link.
//
// Every offload's input working set crosses the host↔device PCIe bus
// before it can execute, and its results cross back afterwards. Both
// Dokulil et al. ("Efficient Hybrid Execution of C++ Applications using
// Intel Xeon Phi Coprocessor") and Fang et al. ("An Empirical Study of
// Intel Xeon Phi") measure the transfer path as a first-order offload
// cost — and, unlike compute, the link is shared by every container on
// the card, so co-resident jobs contend for it even when COSMIC keeps
// their thread demand disjoint.
//
// The model is processor-sharing on bandwidth: N concurrent transfers
// each progress at bandwidth/N, re-evaluated whenever a transfer starts,
// finishes, or is cancelled (same settle/reconcile structure as
// phi::Device). When the link is routed through a node's host-side
// phi::PcieSwitch, each transfer's rate is additionally capped by the
// switch's fair share — see phi/pcie_switch.hpp for the hierarchical
// contention model. Per-transfer latency is charged as equivalent wire time
// (latency_s * bandwidth MiB prepended to the payload), so an
// uncontended transfer takes latency_s + mib/bandwidth seconds and the
// latency share stretches under contention like the payload does.
//
// The link is OFF by default (PcieLinkConfig::contention = false): the
// main experiments are calibrated with transfer cost folded into the
// measured offload durations, and every golden/figure/table output must
// stay bit-identical until a harness opts in.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "common/types.hpp"
#include "obs/recorder.hpp"
#include "sim/simulator.hpp"

namespace phisched::phi {

class PcieSwitch;

using XferId = std::uint64_t;

/// Transfer direction relative to the device.
enum class XferDir {
  kIn,   ///< host → device (offload input working set)
  kOut,  ///< device → host (offload results)
};

[[nodiscard]] const char* xfer_dir_name(XferDir dir);

struct PcieLinkConfig {
  /// Master switch (the `pcie.contention` knob). Off reproduces the
  /// calibrated behaviour where transfers cost nothing explicit.
  bool contention = false;
  /// Shared bidirectional link bandwidth. ~6 GiB/s is the effective
  /// PCIe gen2 x16 rate Fang et al. measure on a KNC card.
  double bandwidth_mib_s = 6144.0;
  /// Fixed per-transfer setup cost (DMA descriptor + doorbell), charged
  /// as equivalent wire time.
  double latency_s = 0.0;
  /// Result bytes returned per offload, as a fraction of its input
  /// working set. 0 disables output transfers.
  double output_fraction = 0.25;
};

struct PcieLinkStats {
  std::uint64_t transfers_in = 0;   ///< completed host→device transfers
  std::uint64_t transfers_out = 0;  ///< completed device→host transfers
  MiB mib_in = 0;                   ///< MiB delivered host→device
  MiB mib_out = 0;                  ///< MiB delivered device→host
  std::uint64_t cancelled = 0;      ///< transfers dropped by cancel_job
};

/// One card's shared PCIe link: fair-share bandwidth across all in-flight
/// transfers, with completion callbacks on delivery.
class PcieLink {
 public:
  using Callback = std::function<void()>;

  PcieLink(Simulator& sim, PcieLinkConfig config, std::string name = "pcie");

  PcieLink(const PcieLink&) = delete;
  PcieLink& operator=(const PcieLink&) = delete;

  [[nodiscard]] bool enabled() const { return config_.contention; }
  [[nodiscard]] const PcieLinkConfig& config() const { return config_; }
  [[nodiscard]] const PcieLinkStats& stats() const { return stats_; }
  [[nodiscard]] const std::string& name() const { return name_; }

  /// Starts moving `mib` MiB for `job`; `on_done` fires when the last
  /// byte lands. The link must be enabled. Concurrent transfers slow each
  /// other down (fair share); `on_done` never fires for transfers dropped
  /// by cancel_job.
  XferId start_transfer(JobId job, MiB mib, XferDir dir, Callback on_done);

  /// Drops every in-flight transfer of `job` (killed process): their
  /// callbacks never fire and the survivors immediately speed up.
  void cancel_job(JobId job);

  [[nodiscard]] std::size_t active_transfers() const {
    return transfers_.size();
  }

  /// Mean link occupancy (fraction of time with >= 1 active transfer)
  /// over [0, until].
  [[nodiscard]] double busy_fraction(SimTime until) const;

  /// The host-side switch this link drains through (hierarchical
  /// contention), or null while the link is flat. Set by
  /// PcieSwitch::add_link.
  [[nodiscard]] PcieSwitch* uplink() const { return uplink_; }

  /// Registers the link's instruments under `prefix` (e.g.
  /// "phi.node0.mic0.pcie"): busy_frac and transfer_queue_depth series,
  /// bytes_in/out counters (stats().mib_in/mib_out, so MiB units), and
  /// pcie_xfer_begin/end events.
  void attach_telemetry(obs::Recorder& recorder, const std::string& prefix);

 private:
  friend class PcieSwitch;  // settle/reconcile fan-out across a node

  struct Transfer {
    XferId id = 0;
    JobId job = 0;
    XferDir dir = XferDir::kIn;
    MiB mib = 0;              ///< payload size, for stats and events
    double wire_mib = 0;      ///< payload + latency-equivalent wire time
    double remaining_mib = 0; ///< wire time still to move
    Callback on_done;
    EventHandle completion;
  };

  /// Per-transfer rate right now: the card link's fair share, capped by
  /// the node switch's fair share when the link has an uplink.
  [[nodiscard]] double current_rate() const;
  /// Integrates transfer progress up to now() at the current fair share.
  void settle();
  /// Recomputes per-transfer rate and completion events after any change.
  void reconcile();
  /// settle()/reconcile(), fanned out across every link on the node when
  /// an uplink is attached: any change on one card shifts every card's
  /// fair share, so the whole node settles at the old rates first and
  /// reconciles at the new ones after.
  void settle_all();
  void reconcile_all();
  void finish(XferId id);
  void note_depth();

  /// Cached instrument pointers; all null until attach_telemetry.
  struct Telemetry {
    obs::Recorder* rec = nullptr;
    std::string prefix;
    obs::TimeSeriesGauge* busy_frac = nullptr;
    obs::TimeSeriesGauge* queue_depth = nullptr;
  };

  Simulator& sim_;
  PcieLinkConfig config_;
  std::string name_;
  PcieSwitch* uplink_ = nullptr;
  std::map<XferId, Transfer> transfers_;
  XferId next_id_ = 1;
  SimTime last_settle_ = 0.0;
  TimeWeighted busy_time_;  ///< 1 while any transfer is in flight
  PcieLinkStats stats_;
  Telemetry obs_;
};

}  // namespace phisched::phi
