// Golden-file regression for the PCIe-link and per-container telemetry:
// a fixed device scenario with the contention model on must export the
// exact JSON pinned under tests/obs/golden/pcie_snapshot.json.
// Regenerate intentionally with
//   PHISCHED_REGEN_GOLDEN=1 ctest -R PcieGolden
// after a deliberate schema change, and review the diff.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/json.hpp"
#include "obs/recorder.hpp"
#include "phi/device.hpp"
#include "sim/simulator.hpp"

namespace phisched::phi {
namespace {

[[nodiscard]] std::string golden_path() {
  return std::string(PHISCHED_TEST_DATA_DIR) + "/obs/golden/pcie_snapshot.json";
}

[[nodiscard]] std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(PcieGolden, DeviceScenarioMatchesGoldenFile) {
  Simulator sim;
  obs::Recorder rec;
  DeviceConfig config;
  config.affinity = AffinityPolicy::kManagedCompact;
  config.pcie.contention = true;
  config.pcie.bandwidth_mib_s = 1000.0;
  Device dev(sim, config, Rng(7));
  dev.attach_telemetry(rec, "phi.node0.mic0");

  // Two containers; their input transfers overlap on the link (1000 MiB
  // and 500 MiB from t=0, fair-share), each starts an offload on arrival,
  // and container 1 pays an output transfer after its offload drains.
  dev.attach_process(1, 512, nullptr);
  dev.attach_process(2, 256, nullptr);
  dev.pcie_link().start_transfer(1, 1000, XferDir::kIn, [&] {
    dev.start_offload(1, 60, 200, 2.0, nullptr);
  });
  dev.pcie_link().start_transfer(2, 500, XferDir::kIn, [&] {
    dev.start_offload(2, 30, 100, 1.0, nullptr);
  });
  sim.run();
  dev.pcie_link().start_transfer(1, 250, XferDir::kOut, nullptr);
  sim.run();
  obs::Snapshot snap = obs::take_snapshot(rec, sim.now());
  dev.finalize_telemetry_into(snap);
  const std::string doc = obs::snapshot_json(snap, /*pretty=*/true);
  ASSERT_TRUE(json_parse(doc).has_value());

  if (std::getenv("PHISCHED_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(golden_path(), std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path();
    out << doc;
    GTEST_SKIP() << "regenerated " << golden_path();
  }

  const std::string golden = read_file(golden_path());
  ASSERT_FALSE(golden.empty())
      << "missing golden file " << golden_path()
      << " — run with PHISCHED_REGEN_GOLDEN=1 to create it";
  EXPECT_EQ(doc, golden);
}

}  // namespace
}  // namespace phisched::phi
