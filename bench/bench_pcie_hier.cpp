// Hierarchical PCIe contention (ours): calibrate one card's link against
// the Table 1 transfer constants, then sweep cards-per-node to show the
// host-side switch (phi::PcieSwitch) saturating.
//
// Three parts:
//  1. Calibration — two solo transfers of different sizes on one flat
//     link solve t = L + S/B for the effective bandwidth B and latency L;
//     both must land on the configured card constants (6144 MiB/s,
//     15 us) to well within 5%.
//  2. Cards-per-node sweep — k cards behind one 2-card-wide switch, one
//     concurrent bulk transfer per card. Per-card throughput holds at
//     the full link rate through k=2 (the uplink is exactly at
//     capacity), then halves with every doubling: the saturation shape
//     Fang et al. measure, which a flat per-card model cannot produce.
//  3. A small full-stack MCCK run with contention + switch enabled, so
//     the perf gate (tools/bench_diff vs bench/golden/BENCH_pcie.json)
//     watches end-to-end makespan/wait/turnaround/utilization too.
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "bench_util.hpp"
#include "phi/pcie.hpp"
#include "phi/pcie_switch.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace phisched;

/// Table 1 card constants: effective PCIe gen2 x16 rate and per-transfer
/// DMA setup latency for one KNC card (Fang et al.).
constexpr double kCardBandwidthMibS = 6144.0;
constexpr double kCardLatencyS = 15e-6;
/// Host uplink: 2 cards' worth — the root complex stops scaling there.
constexpr double kSwitchBandwidthMibS = 2.0 * kCardBandwidthMibS;

phi::PcieLinkConfig card_link_config() {
  phi::PcieLinkConfig cfg;
  cfg.contention = true;
  cfg.bandwidth_mib_s = kCardBandwidthMibS;
  cfg.latency_s = kCardLatencyS;
  return cfg;
}

/// Wall time of one solo transfer of `mib` on a flat (switchless) link.
double solo_transfer_time(MiB mib) {
  Simulator sim;
  phi::PcieLink link(sim, card_link_config());
  link.start_transfer(1, mib, phi::XferDir::kIn, [] {});
  sim.run();
  return sim.now();
}

/// Recovered (bandwidth, latency) from two solo transfer timings:
/// t = L + S/B is linear in S, so two sizes pin both constants.
struct Calibration {
  double bandwidth_mib_s = 0.0;
  double latency_s = 0.0;
};

Calibration calibrate() {
  const MiB small = 64, large = 2048;
  const double t_small = solo_transfer_time(small);
  const double t_large = solo_transfer_time(large);
  Calibration cal;
  cal.bandwidth_mib_s =
      static_cast<double>(large - small) / (t_large - t_small);
  cal.latency_s =
      t_small - static_cast<double>(small) / cal.bandwidth_mib_s;
  return cal;
}

/// Per-card throughput with `cards` links behind one switch, one
/// concurrent bulk transfer per card.
double percard_throughput(int cards, MiB mib_per_card) {
  Simulator sim;
  phi::PcieSwitchConfig scfg;
  scfg.enabled = true;
  scfg.bandwidth_mib_s = kSwitchBandwidthMibS;
  phi::PcieSwitch sw(sim, scfg);
  std::vector<std::unique_ptr<phi::PcieLink>> links;
  for (int c = 0; c < cards; ++c) {
    links.push_back(std::make_unique<phi::PcieLink>(
        sim, card_link_config(), "pcie" + std::to_string(c)));
    sw.add_link(*links.back());
  }
  for (int c = 0; c < cards; ++c) {
    links[static_cast<std::size_t>(c)]->start_transfer(
        static_cast<JobId>(c + 1), mib_per_card, phi::XferDir::kIn, [] {});
  }
  sim.run();
  return static_cast<double>(mib_per_card) / sim.now();
}

cluster::ExperimentConfig stack_config(std::uint64_t seed) {
  cluster::ExperimentConfig config;
  config.node_count = 2;
  config.devices.assign(4, phi::DeviceCapability{});
  config.node_hw.slots = 64;
  config.stack = cluster::StackConfig::kMCCK;
  config.seed = seed;
  config.pcie = card_link_config();
  config.pcie_switch.enabled = true;
  config.pcie_switch.bandwidth_mib_s = kSwitchBandwidthMibS;
  return config;
}

std::map<std::string, double> run_seed(std::uint64_t seed) {
  std::map<std::string, double> m;

  const Calibration cal = calibrate();
  m["cal.bandwidth_mib_s"] = cal.bandwidth_mib_s;
  m["cal.latency_us"] = cal.latency_s * 1e6;

  for (const int cards : {1, 2, 4, 8}) {
    m["percard_mib_s.cards" + std::to_string(cards)] =
        percard_throughput(cards, 2048);
  }

  const auto jobs =
      workload::make_real_jobset(300, Rng(seed).child("jobs"));
  const auto r = bench::run_stack(stack_config(seed), jobs);
  m["stack.makespan_s"] = r.makespan;
  m["stack.mean_wait_s"] = r.wait_time.mean();
  m["stack.mean_turnaround_s"] = r.mean_turnaround;
  m["stack.core_utilization"] = r.avg_core_utilization;
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace phisched::bench;

  if (run_json_mode(argc, argv, "pcie", run_seed)) return 0;

  print_header(
      "Hierarchical PCIe: card calibration + cards-per-node saturation",
      "ours (Table 1 transfer constants; Fang et al. saturation shape)");

  const Calibration cal = calibrate();
  AsciiTable cal_table({"Constant", "Configured", "Recovered", "Error"});
  cal_table.add_row({"bandwidth (MiB/s)",
                     AsciiTable::cell(kCardBandwidthMibS, 0),
                     AsciiTable::cell(cal.bandwidth_mib_s, 0),
                     pct(cal.bandwidth_mib_s / kCardBandwidthMibS - 1.0, 3)});
  cal_table.add_row({"latency (us)", AsciiTable::cell(kCardLatencyS * 1e6, 1),
                     AsciiTable::cell(cal.latency_s * 1e6, 1),
                     pct(cal.latency_s / kCardLatencyS - 1.0, 3)});
  std::printf("%s\n", cal_table.to_string().c_str());

  AsciiTable sweep({"Cards", "Per-card MiB/s", "Aggregate MiB/s",
                    "vs solo card"});
  for (const int cards : {1, 2, 4, 8}) {
    const double per = percard_throughput(cards, 2048);
    sweep.add_row({std::to_string(cards), AsciiTable::cell(per, 0),
                   AsciiTable::cell(per * cards, 0),
                   pct(per / kCardBandwidthMibS - 1.0)});
  }
  std::printf("%s\n", sweep.to_string().c_str());

  const auto jobs =
      phisched::workload::make_real_jobset(300, phisched::Rng(42).child("jobs"));
  const auto r = run_stack(stack_config(42), jobs);
  std::printf("full stack (2 nodes x 4 cards, MCCK, switch on): "
              "makespan %.0f s, util %.1f%%\n",
              r.makespan, r.avg_core_utilization * 100.0);
  return 0;
}
