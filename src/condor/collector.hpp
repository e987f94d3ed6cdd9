// The collector: registry of machine (node) ClassAds.
//
// Real Condor startds push updates on an interval (UPDATE_INTERVAL), so
// the negotiator sees machine state that can be STALE. Nodes register a
// generator callback; by default the collector asks it on every query
// and keeps nothing ("the most recent update just arrived"), but an
// update interval can be configured to model staleness: an ad fetched at
// time t reflects the node's state at the last multiple of the interval.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "classad/classad.hpp"
#include "common/types.hpp"
#include "sim/simulator.hpp"

namespace phisched::condor {

/// One negotiation cycle's machine ads, ordered by node id.
using MachineAds = std::vector<std::pair<NodeId, classad::ClassAd>>;

class Collector {
 public:
  using AdSource = std::function<classad::ClassAd()>;

  /// Always-fresh collector (zero staleness).
  Collector() = default;

  /// Staleness-modelling collector: ads refresh only every
  /// `update_interval` seconds of simulated time (plus once at t=0).
  Collector(Simulator& sim, SimTime update_interval);

  /// Registers (or replaces) the ad source for a node.
  void advertise(NodeId node, AdSource source);

  void withdraw(NodeId node);

  /// Snapshot of all machine ads, ordered by node id. With an update
  /// interval configured these are the ads as of the last update epoch.
  [[nodiscard]] MachineAds machine_ads() const;

  /// Ad for one node (same staleness semantics); throws if unknown.
  [[nodiscard]] classad::ClassAd machine_ad(NodeId node) const;

  [[nodiscard]] std::size_t machine_count() const { return sources_.size(); }

 private:
  struct Entry {
    AdSource source;
    /// The staleness mode's ad as of cached_epoch; unused when fresh.
    mutable std::optional<classad::ClassAd> cached;
    mutable SimTime cached_epoch = -1.0;
  };

  /// The entry's ad: the source's, or the epoch's when stale.
  [[nodiscard]] classad::ClassAd resolve(const Entry& entry) const;

  Simulator* sim_ = nullptr;
  SimTime update_interval_ = 0.0;
  std::map<NodeId, Entry> sources_;
};

}  // namespace phisched::condor
