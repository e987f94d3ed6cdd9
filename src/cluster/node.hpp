// A compute node: host slots + Xeon Phi devices + node middleware, plus
// the machine ClassAd it advertises to the collector.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "classad/classad.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "cosmic/middleware.hpp"
#include "phi/device.hpp"
#include "phi/pcie_switch.hpp"
#include "sim/simulator.hpp"

namespace phisched::cluster {

struct NodeConfig {
  NodeHardware hw{};
  /// Device behaviour knobs, applied to every card; each card's
  /// capability comes from `devices`.
  phi::DeviceConfig device{};
  /// The node's cards, one capability each (the --devices spec): card d
  /// takes entry d's generation, geometry and memory bandwidth. Defaults
  /// to one 5110P; an empty list is a precondition error.
  std::vector<phi::DeviceCapability> devices{phi::DeviceCapability{}};
  /// Host-side PCIe switch above the per-card links. Requires
  /// device.pcie.contention when enabled.
  phi::PcieSwitchConfig pcie_switch{};
  cosmic::MiddlewareConfig middleware{};
};

class Node {
 public:
  Node(Simulator& sim, NodeId id, NodeConfig config, Rng rng);

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  [[nodiscard]] NodeId id() const { return id_; }
  [[nodiscard]] int device_count() const {
    return static_cast<int>(devices_.size());
  }
  [[nodiscard]] phi::Device& device(DeviceId d);
  [[nodiscard]] const phi::Device& device(DeviceId d) const;
  [[nodiscard]] cosmic::NodeMiddleware& middleware() { return *middleware_; }
  [[nodiscard]] const cosmic::NodeMiddleware& middleware() const {
    return *middleware_;
  }
  /// The node's host-side PCIe switch, or null when not configured.
  [[nodiscard]] phi::PcieSwitch* pcie_switch() { return pcie_switch_.get(); }
  [[nodiscard]] const phi::PcieSwitch* pcie_switch() const {
    return pcie_switch_.get();
  }

  [[nodiscard]] int total_slots() const { return config_.hw.slots; }
  [[nodiscard]] int free_slots() const { return config_.hw.slots - busy_slots_; }
  void claim_slot();
  void release_slot();

  /// Devices with no resident job — exclusive-allocation capacity.
  [[nodiscard]] int free_exclusive_devices() const;

  /// The ClassAd the node's startd would push to the collector, built
  /// from the construction-time constants and the live AdState only.
  [[nodiscard]] classad::ClassAd machine_ad() const;

  /// The node's last built ad, rebuilt by machine_ad() only when the
  /// live state it advertises changed since the previous call. Equal
  /// states build equal ads, so this always equals machine_ad().
  [[nodiscard]] const classad::ClassAd& advertised_ad();

  /// Ads advertised_ad() has built. Not exported as telemetry.
  [[nodiscard]] std::uint64_t ad_builds() const { return ad_builds_; }

 private:
  /// Everything machine_ad() reads that can change after construction.
  struct AdState {
    struct Card {
      MiB free_memory = 0;
      ThreadCount free_threads = 0;
      /// Bit pattern of the unreserved bandwidth: a constant when the
      /// card's contention model is off (the ad then omits it).
      std::uint64_t free_bw_bits = 0;
      friend bool operator==(const Card&, const Card&) = default;
    };
    int free_slots = 0;
    int free_devices = 0;
    std::vector<Card> cards;
    friend bool operator==(const AdState&, const AdState&) = default;
  };

  /// Overwrites `state` with the node's live AdState.
  void read_ad_state(AdState& state) const;

  Simulator& sim_;
  NodeId id_;
  NodeConfig config_;
  std::vector<std::unique_ptr<phi::Device>> devices_;
  std::unique_ptr<phi::PcieSwitch> pcie_switch_;
  std::unique_ptr<cosmic::NodeMiddleware> middleware_;
  int busy_slots_ = 0;
  /// advertised_ad()'s kept ad, the state it was built from, and the
  /// scratch state each call reads before comparing.
  classad::ClassAd kept_ad_;
  AdState kept_state_;
  AdState live_state_;
  std::uint64_t ad_builds_ = 0;
};

}  // namespace phisched::cluster
