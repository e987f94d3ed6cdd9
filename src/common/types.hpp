// Core scalar types and hardware description shared by every phisched module.
#pragma once

#include <cstdint>
#include <string>

namespace phisched {

/// Simulated wall-clock time, in seconds since simulation start.
using SimTime = double;

/// Memory amounts, in MiB. The Xeon Phi 5110P ships 8 GiB; jobs in the
/// paper request between 300 MiB and 3400 MiB (Table I).
using MiB = std::int64_t;

/// Hardware-thread counts (the Phi exposes 240).
using ThreadCount = int;

/// Physical-core counts (the Phi exposes 60).
using CoreCount = int;

/// Monotonically increasing job identifier, unique per job set.
using JobId = std::uint64_t;

/// Identifies a compute node within a cluster (0-based).
using NodeId = int;

/// Identifies a coprocessor device within a node (0-based).
using DeviceId = int;

/// Static description of one Xeon Phi-style manycore coprocessor.
///
/// Defaults match the paper's testbed: a 60-core KNC card with 4 hardware
/// threads per core and 8 GiB of on-card memory, of which a slice is
/// reserved for the coprocessor's Linux, daemons and file system.
struct PhiHardware {
  CoreCount cores = 60;
  int threads_per_core = 4;
  MiB memory_mib = 8192;
  MiB os_reserved_mib = 512;

  [[nodiscard]] constexpr ThreadCount hw_threads() const {
    return cores * threads_per_core;
  }
  [[nodiscard]] constexpr MiB usable_memory_mib() const {
    return memory_mib - os_reserved_mib;
  }

  friend bool operator==(const PhiHardware&, const PhiHardware&) = default;
};

/// Static description of a compute node (host side); its cards are
/// described one DeviceCapability each (phi/capability.hpp).
///
/// The paper's servers have two 8-core Xeons; HTCondor represents host
/// capacity as slots. Sharing multiple jobs per node requires one slot per
/// concurrently resident job, so we default to one slot per host core.
struct NodeHardware {
  int slots = 16;
};

/// Fully qualified address of one coprocessor in the cluster.
struct DeviceAddress {
  NodeId node = -1;
  DeviceId device = -1;

  friend bool operator==(const DeviceAddress&, const DeviceAddress&) = default;
  friend auto operator<=>(const DeviceAddress&, const DeviceAddress&) = default;
};

[[nodiscard]] inline std::string to_string(const DeviceAddress& a) {
  return "mic" + std::to_string(a.device) + "@node" + std::to_string(a.node);
}

}  // namespace phisched
