#include "cluster/node.hpp"

#include <algorithm>
#include <bit>

#include "classad/parser.hpp"
#include "common/check.hpp"
#include "condor/ads.hpp"

namespace phisched::cluster {

Node::Node(Simulator& sim, NodeId id, NodeConfig config, Rng rng)
    : sim_(sim), id_(id), config_(std::move(config)) {
  PHISCHED_REQUIRE(!config_.devices.empty(), "Node: need at least one device");
  PHISCHED_REQUIRE(config_.hw.slots > 0, "Node: need at least one slot");

  std::vector<phi::Device*> raw;
  for (std::size_t d = 0; d < config_.devices.size(); ++d) {
    phi::DeviceConfig dc = config_.device;
    dc.capability = config_.devices[d];
    auto dev = std::make_unique<phi::Device>(
        sim_, dc, rng.child("device" + std::to_string(d)),
        "mic" + std::to_string(d) + "@" + condor::machine_name(id_));
    raw.push_back(dev.get());
    devices_.push_back(std::move(dev));
  }
  if (config_.pcie_switch.enabled) {
    PHISCHED_REQUIRE(config_.device.pcie.contention,
                     "Node: pcie_switch requires pcie contention enabled");
    pcie_switch_ = std::make_unique<phi::PcieSwitch>(
        sim_, config_.pcie_switch,
        "pcie_switch@" + condor::machine_name(id_));
    for (phi::Device* dev : raw) pcie_switch_->add_link(dev->pcie_link());
  }
  middleware_ =
      std::make_unique<cosmic::NodeMiddleware>(sim_, raw, config_.middleware);
}

phi::Device& Node::device(DeviceId d) {
  PHISCHED_REQUIRE(d >= 0 && static_cast<std::size_t>(d) < devices_.size(),
                   "Node: bad device id");
  return *devices_[static_cast<std::size_t>(d)];
}

const phi::Device& Node::device(DeviceId d) const {
  PHISCHED_REQUIRE(d >= 0 && static_cast<std::size_t>(d) < devices_.size(),
                   "Node: bad device id");
  return *devices_[static_cast<std::size_t>(d)];
}

void Node::claim_slot() {
  PHISCHED_REQUIRE(free_slots() > 0, "Node: no free slots");
  ++busy_slots_;
}

void Node::release_slot() {
  PHISCHED_REQUIRE(busy_slots_ > 0, "Node: releasing an unclaimed slot");
  --busy_slots_;
}

int Node::free_exclusive_devices() const {
  int n = 0;
  for (DeviceId d = 0; d < device_count(); ++d) {
    if (middleware_->jobs_on_device(d) == 0) ++n;
  }
  return n;
}

void Node::read_ad_state(AdState& state) const {
  state.free_slots = free_slots();
  state.free_devices = free_exclusive_devices();
  state.cards.resize(static_cast<std::size_t>(device_count()));
  for (DeviceId d = 0; d < device_count(); ++d) {
    AdState::Card& card = state.cards[static_cast<std::size_t>(d)];
    card.free_memory = middleware_->unreserved_memory(d);
    card.free_threads = middleware_->unreserved_threads(d);
    card.free_bw_bits =
        std::bit_cast<std::uint64_t>(middleware_->unreserved_bandwidth(d));
  }
}

classad::ClassAd Node::machine_ad() const {
  AdState state;
  read_ad_state(state);
  classad::ClassAd ad;
  ad.insert_string(condor::kAttrName, condor::machine_name(id_));
  ad.insert_integer(condor::kAttrTotalSlots, total_slots());
  ad.insert_integer(condor::kAttrFreeSlots, state.free_slots);
  ad.insert_integer(condor::kAttrPhiDevices, device_count());
  // Node-level geometry is the max over the fleet so existing
  // Requirements stay satisfiable on mixed nodes; per-device attributes
  // below carry the exact per-card numbers.
  ThreadCount max_hw_threads = 0;
  MiB max_usable = 0;
  for (DeviceId d = 0; d < device_count(); ++d) {
    const PhiHardware& hw = device(d).capability().hw;
    max_hw_threads = std::max(max_hw_threads, hw.hw_threads());
    max_usable = std::max(max_usable, hw.usable_memory_mib());
  }
  ad.insert_integer(condor::kAttrPhiHwThreads, max_hw_threads);
  ad.insert_integer(condor::kAttrPhiTotalMemory, max_usable);
  ad.insert_integer(condor::kAttrPhiFreeDevices, state.free_devices);

  MiB best_free = 0;
  for (DeviceId d = 0; d < device_count(); ++d) {
    const AdState::Card& card = state.cards[static_cast<std::size_t>(d)];
    best_free = std::max(best_free, card.free_memory);
    ad.insert_integer(condor::per_device_memory_attr(d), card.free_memory);
    // May go negative when declared threads stack beyond the hardware
    // budget; schedulers need the raw value to account residents.
    ad.insert_integer(condor::per_device_threads_attr(d), card.free_threads);
    const PhiHardware& hw = device(d).capability().hw;
    ad.insert_integer(condor::per_device_hw_threads_attr(d), hw.hw_threads());
    ad.insert_integer(condor::per_device_total_memory_attr(d),
                      hw.usable_memory_mib());
    // Published raw (possibly negative under oversubscription) whenever
    // the contention model is on; absent when it is off.
    if (device(d).mem_bw_budget() >= 0.0) {
      ad.insert_real(condor::per_device_free_bw_attr(d),
                     std::bit_cast<double>(card.free_bw_bits));
    }
  }
  ad.insert_integer(condor::kAttrPhiFreeMemory, best_free);
  // Parsed once and shared: ASTs are immutable, so every ad may hold it.
  static const classad::ExprPtr kRequirements =
      classad::parse("MY.FreeSlots >= 1");
  ad.insert(condor::kAttrRequirements, kRequirements);
  return ad;
}

const classad::ClassAd& Node::advertised_ad() {
  read_ad_state(live_state_);
  if (ad_builds_ == 0 || live_state_ != kept_state_) {
    kept_ad_ = machine_ad();
    std::swap(kept_state_, live_state_);
    ++ad_builds_;
  }
  return kept_ad_;
}

}  // namespace phisched::cluster
