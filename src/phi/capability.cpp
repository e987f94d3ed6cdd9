#include "phi/capability.hpp"

#include <algorithm>
#include <cctype>
#include <limits>
#include <sstream>

#include "common/check.hpp"
#include "common/parse.hpp"

namespace phisched::phi {

namespace {

/// The KNC SKUs the paper's era shipped, Fang et al.'s Table 1 geometry.
/// The 5110P row must stay exactly equal to DeviceCapability{} (and its
/// hw to PhiHardware{}): the default fleet and a bare `--devices N` build
/// default cards, and the homogeneous-equivalence suite pins them
/// bit-identical to `1x5110P` and `Nx5110P`.
const std::vector<DeviceCapability>& spec_table() {
  static const std::vector<DeviceCapability> kTable = {
      {.generation = "3120A",
       .hw = {.cores = 57, .threads_per_core = 4, .memory_mib = 6144,
              .os_reserved_mib = 512},
       .mem_bandwidth_mib_s = 245760.0},  // 240 GB/s GDDR5 ring
      {.generation = "5110P",
       .hw = {.cores = 60, .threads_per_core = 4, .memory_mib = 8192,
              .os_reserved_mib = 512},
       .mem_bandwidth_mib_s = 327680.0},  // 320 GB/s
      {.generation = "7120P",
       .hw = {.cores = 61, .threads_per_core = 4, .memory_mib = 16384,
              .os_reserved_mib = 512},
       .mem_bandwidth_mib_s = 360448.0},  // 352 GB/s
  };
  return kTable;
}

[[nodiscard]] std::string upper(const std::string& s) {
  std::string out = s;
  for (char& c : out) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  return out;
}

}  // namespace

const std::vector<DeviceCapability>& known_generations() {
  return spec_table();
}

std::optional<DeviceCapability> capability_from_generation(
    const std::string& name) {
  const std::string wanted = upper(name);
  for (const auto& cap : spec_table()) {
    if (upper(cap.generation) == wanted) return cap;
  }
  return std::nullopt;
}

std::vector<DeviceCapability> parse_device_spec(const std::string& spec) {
  std::vector<DeviceCapability> devices;
  PHISCHED_REQUIRE(!spec.empty(),
                   "devices: empty spec (expected e.g. 2x5110P+2x7120P)");
  std::size_t start = 0;
  while (start <= spec.size()) {
    const std::size_t plus = spec.find('+', start);
    const std::size_t end = plus == std::string::npos ? spec.size() : plus;
    const std::string group = spec.substr(start, end - start);
    PHISCHED_REQUIRE(!group.empty(), "devices: empty group in spec '", spec,
                     "'");
    // `COUNT` (default cards), `COUNTxGENERATION` or `GENERATION`:
    // generation names never start with a digit run followed by 'x'. A
    // digit run past the 64-bit range is past the card bound too.
    const std::size_t digits =
        std::min(group.find_first_not_of("0123456789"), group.size());
    std::int64_t count = 1;
    std::string name = group;
    if (digits == group.size() ||
        (digits > 0 && (group[digits] == 'x' || group[digits] == 'X'))) {
      count = read_int(group.substr(0, digits))
                  .value_or(std::numeric_limits<std::int64_t>::max());
      name = digits == group.size() ? DeviceCapability{}.generation
                                    : group.substr(digits + 1);
    }
    PHISCHED_REQUIRE(count > 0, "devices: group '", group,
                     "' has a non-positive count");
    const auto room =
        kMaxDevicesPerNode - static_cast<std::int64_t>(devices.size());
    PHISCHED_REQUIRE(count <= room, "devices: group '", group,
                     "' puts more than ", kMaxDevicesPerNode,
                     " cards on one node");
    PHISCHED_REQUIRE(!name.empty(), "devices: group '", group,
                     "' names no generation");
    const auto cap = capability_from_generation(name);
    if (!cap.has_value()) {
      std::ostringstream known;
      for (const auto& k : spec_table()) {
        if (known.tellp() > 0) known << "|";
        known << k.generation;
      }
      PHISCHED_REQUIRE(false, "devices: unknown generation '", name,
                       "' in group '", group, "' (known: ", known.str(), ")");
    }
    devices.insert(devices.end(), static_cast<std::size_t>(count), *cap);
    if (plus == std::string::npos) break;
    start = plus + 1;  // a trailing '+' yields an empty group next round
  }
  return devices;
}

std::string device_spec_to_string(
    const std::vector<DeviceCapability>& devices) {
  std::ostringstream os;
  std::size_t i = 0;
  while (i < devices.size()) {
    std::size_t run = 1;
    while (i + run < devices.size() &&
           devices[i + run].generation == devices[i].generation) {
      ++run;
    }
    if (os.tellp() > 0) os << '+';
    if (run > 1) os << run << 'x';
    os << devices[i].generation;
    i += run;
  }
  return os.str();
}

}  // namespace phisched::phi
