// Per-device capability descriptions for heterogeneous Phi fleets.
//
// The paper's testbed is homogeneous — every card a 5110P — but real
// deployments mixed KNC steppings with different core counts, memory
// sizes, and link speeds. Each Device carries a DeviceCapability naming
// its generation and its bandwidth envelope; the cluster publishes each
// card's geometry and free bandwidth as machine-ad attributes
// (PhiHwThreads<d>, PhiTotalMemory<d>, PhiFreeBandwidth<d>), and the
// knapsack policies use the aggregate memory bandwidth as a third
// packing dimension (see MemBwConfig below).
//
// The spec-table idiom (one named constant per shipping SKU, the default
// generation exactly matching PhiHardware's defaults) follows the
// per-device capability tables used by GPU cluster schedulers.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace phisched::phi {

/// Static capability envelope of one coprocessor generation: the only
/// description of a card.
///
/// `hw` is the thread/memory geometry the rest of the simulator
/// consumes; the memory bandwidth extends it with the shared channel
/// that Fang et al. ("An Empirical Study of Intel Xeon Phi") measure as
/// a real co-residency bottleneck. Every KNC sits on the same PCIe gen2
/// x16 link, so the link rate is not a per-card field: it is
/// PcieLinkConfig::bandwidth_mib_s (phi/pcie.hpp) on every fleet.
struct DeviceCapability {
  /// Marketing name of the SKU ("5110P", "7120P", ...). Matched
  /// case-insensitively by the --devices grammar and published verbatim
  /// in the machine ad.
  std::string generation = "5110P";
  PhiHardware hw{};
  /// Aggregate GDDR5 memory bandwidth of the card's ring, MiB/s.
  /// Theoretical peak; MemBwConfig::saturation scales it to the
  /// practically achievable STREAM-class fraction.
  double mem_bandwidth_mib_s = 327680.0;

  friend bool operator==(const DeviceCapability&,
                         const DeviceCapability&) = default;
};

/// Per-device memory-bandwidth contention model, the third sharing
/// dimension next to threads and memory. OFF by default: the calibrated
/// experiments fold memory effects into measured offload durations and
/// every golden output must stay bit-identical until a harness opts in.
///
/// When on, the node middleware reports the summed declared bandwidth of
/// resident containers to the device, and offload segments slow by
/// (budget / demand)^exponent once demand exceeds the budget
/// (saturation × the card's aggregate bandwidth) — the same saturation
/// shape as the thread-oversubscription model, with exponent 1 because
/// bandwidth shares degrade linearly rather than super-linearly.
struct MemBwConfig {
  bool contention = false;
  /// Fraction of the theoretical aggregate bandwidth sustainable in
  /// practice (STREAM reaches roughly half of peak on KNC).
  double saturation = 0.5;
  double exponent = 1.0;

  /// Demand past this budget slows the card; < 0 when the model is off.
  [[nodiscard]] double budget_mib_s(const DeviceCapability& cap) const {
    return contention ? saturation * cap.mem_bandwidth_mib_s : -1.0;
  }

  friend bool operator==(const MemBwConfig&, const MemBwConfig&) = default;
};

/// Known KNC generations, spec-table style. kPhi5110P equals a
/// default-constructed DeviceCapability (and PhiHardware{}) exactly —
/// the homogeneous-equivalence suite depends on that identity.
[[nodiscard]] const std::vector<DeviceCapability>& known_generations();

/// Looks a generation up by name (case-insensitive). nullopt if unknown.
[[nodiscard]] std::optional<DeviceCapability> capability_from_generation(
    const std::string& name);

/// The most cards one node may hold. parse_device_spec refuses a spec
/// past it before building any card; a real host has a handful of PCIe
/// x16 slots, and no bench uses more than 4.
inline constexpr int kMaxDevicesPerNode = 64;

/// Parses a fleet spec: '+'-separated groups of `[COUNTx]GENERATION` or
/// a bare `COUNT` of default cards (5110P), e.g. "2x5110P+2x7120P",
/// "3120A", "4" (= "4x5110P"). Throws std::invalid_argument naming the
/// offending group on empty groups, non-positive counts, more than
/// kMaxDevicesPerNode cards in all, or unknown generations.
[[nodiscard]] std::vector<DeviceCapability> parse_device_spec(
    const std::string& spec);

/// Run-length encodes a fleet back into the spec grammar
/// ("2x5110P+2x7120P"); parse_device_spec round-trips it.
[[nodiscard]] std::string device_spec_to_string(
    const std::vector<DeviceCapability>& devices);

}  // namespace phisched::phi
