#include "condor/collector.hpp"

#include <cmath>

#include "common/check.hpp"

namespace phisched::condor {

Collector::Collector(Simulator& sim, SimTime update_interval)
    : sim_(&sim), update_interval_(update_interval) {
  PHISCHED_REQUIRE(update_interval > 0.0,
                   "Collector: update interval must be positive");
}

void Collector::advertise(NodeId node, AdSource source) {
  PHISCHED_REQUIRE(source != nullptr, "Collector: null ad source");
  Entry entry;
  entry.source = std::move(source);
  sources_[node] = std::move(entry);
}

void Collector::withdraw(NodeId node) { sources_.erase(node); }

classad::ClassAd Collector::resolve(const Entry& entry) const {
  if (sim_ == nullptr) return entry.source();  // always fresh
  const SimTime epoch =
      std::floor(sim_->now() / update_interval_) * update_interval_;
  if (!entry.cached.has_value() || entry.cached_epoch < epoch) {
    entry.cached = entry.source();
    entry.cached_epoch = epoch;
  }
  return *entry.cached;
}

MachineAds Collector::machine_ads() const {
  MachineAds out;
  out.reserve(sources_.size());
  for (const auto& [node, entry] : sources_) {
    out.emplace_back(node, resolve(entry));
  }
  return out;
}

classad::ClassAd Collector::machine_ad(NodeId node) const {
  auto it = sources_.find(node);
  PHISCHED_REQUIRE(it != sources_.end(), "Collector: unknown node");
  return resolve(it->second);
}

}  // namespace phisched::condor
