#include "core/addon.hpp"

#include <algorithm>
#include <cmath>

#include "classad/parser.hpp"
#include "common/check.hpp"

namespace phisched::core {

namespace {

PendingJobView job_view(JobId id, const condor::JobRequest& request) {
  PendingJobView v;
  v.id = id;
  v.mem_req_mib = request.mem_mib;
  v.threads_req = request.threads;
  v.devices_req = request.devices;
  v.bw_req = request.bw;
  return v;
}

}  // namespace

SharingAwareScheduler::SharingAwareScheduler(
    condor::Schedd& schedd, std::unique_ptr<AssignmentPolicy> policy,
    AddonConfig config)
    : schedd_(schedd), policy_(std::move(policy)), config_(config) {
  PHISCHED_REQUIRE(policy_ != nullptr, "SharingAwareScheduler: null policy");
  // The budget casts hw_threads * overcommit to an integer: NaN, inf or
  // a huge factor would make that cast undefined. 16 is the bound the
  // batch strategy's occupancy knobs use.
  PHISCHED_REQUIRE(std::isfinite(config_.thread_overcommit) &&
                       config_.thread_overcommit > 0.0 &&
                       config_.thread_overcommit <= 16.0,
                   "SharingAwareScheduler: thread_overcommit must be in "
                   "(0, 16]");
}

std::vector<DeviceView> SharingAwareScheduler::device_views(
    const condor::MachineAds& machines,
    const std::vector<std::pair<DeviceAddress, condor::JobRequest>>&
        in_flight) const {
  std::vector<DeviceView> views;
  for (const auto& [node, ad] : machines) {
    const std::vector<condor::DeviceAd> cards = condor::device_ads(ad);
    for (std::size_t d = 0; d < cards.size(); ++d) {
      const condor::DeviceAd& card = cards[d];
      DeviceView v;
      v.addr = DeviceAddress{node, static_cast<DeviceId>(d)};
      v.free_memory_mib = card.free_memory_mib;
      v.hw_threads = card.hw_threads;
      if (config_.bandwidth_aware) v.bw_budget = card.free_bw;
      if (config_.deduct_resident_threads) {
        // Free threads = hw - resident declared threads (may be negative
        // when packs have stacked up).
        const ThreadCount resident = card.hw_threads - card.free_threads;
        const auto budget = static_cast<ThreadCount>(
            static_cast<double>(card.hw_threads) * config_.thread_overcommit) -
                            resident;
        v.thread_budget = std::max<ThreadCount>(0, budget);
      } else {
        v.thread_budget = card.hw_threads;
      }
      views.push_back(v);
    }
  }

  // In-flight pins: pinned jobs not yet dispatched still consume capacity.
  for (const auto& [pin, request] : in_flight) {
    if (pin.device >= 0) {
      for (DeviceView& v : views) {
        if (v.addr == pin) {
          v.free_memory_mib =
              std::max<MiB>(0, v.free_memory_mib - request.mem_mib);
          if (config_.deduct_resident_threads) {
            v.thread_budget =
                std::max<ThreadCount>(0, v.thread_budget - request.threads);
          }
          if (v.bw_budget >= 0.0) {
            v.bw_budget = std::max(0.0, v.bw_budget - request.bw);
          }
          break;
        }
      }
    } else {
      // Node-level gang pin: charge the devices_req most-free devices of
      // that node (COSMIC will pick some such set at admission).
      std::vector<DeviceView*> node_views;
      for (DeviceView& v : views) {
        if (v.addr.node == pin.node) node_views.push_back(&v);
      }
      std::stable_sort(node_views.begin(), node_views.end(),
                       [](const DeviceView* a, const DeviceView* b) {
                         return a->free_memory_mib > b->free_memory_mib;
                       });
      const auto k = std::min<std::size_t>(
          node_views.size(), static_cast<std::size_t>(request.devices));
      for (std::size_t i = 0; i < k; ++i) {
        node_views[i]->free_memory_mib =
            std::max<MiB>(0, node_views[i]->free_memory_mib - request.mem_mib);
      }
    }
  }
  return views;
}

void SharingAwareScheduler::pre_cycle(const condor::MachineAds& machines) {
  ++stats_.runs;

  // Keep pins only for jobs still pending AND whose ad still carries our
  // edit; everything else has dispatched (its reservation now shows in
  // the machine ads), finished, or was requeued with a fresh ad (a
  // retried job must be re-packed from scratch).
  std::map<JobId, DeviceAddress> live_pins;
  std::vector<std::pair<DeviceAddress, condor::JobRequest>> in_flight;
  std::vector<PendingJobView> unpinned;
  for (const condor::JobRecord* rec : schedd_.pending()) {
    const condor::JobView& view = schedd_.view(*rec);
    auto it = pins_.find(rec->id);
    if (it != pins_.end() && view.pinned_node) {
      live_pins.emplace(rec->id, it->second);
      in_flight.emplace_back(it->second, view.request);
    } else {
      unpinned.push_back(job_view(rec->id, view.request));
    }
  }
  pins_ = std::move(live_pins);

  if (unpinned.empty()) return;

  if (config_.duration_oracle) {
    for (PendingJobView& view : unpinned) {
      view.expected_duration = config_.duration_oracle(view.id);
    }
  }

  std::vector<DeviceView> views = device_views(machines, in_flight);

  auto publish_pin = [&](JobId job, NodeId node,
                         std::optional<DeviceId> device) {
    schedd_.qedit_expr(job, condor::kAttrRequirements,
                       condor::pinned_requirements(node));
    schedd_.qedit(job, condor::kAttrPinnedNode,
                  classad::make_literal(
                      classad::Value::string(condor::machine_name(node))));
    if (device.has_value()) {
      schedd_.qedit(job, condor::kAttrPinnedDevice,
                    classad::make_literal(classad::Value::integer(*device)));
    }
    pins_.emplace(job, DeviceAddress{node, device.value_or(-1)});
    ++stats_.pins;
  };

  // Gang pre-pass: multi-device jobs need `devices_req` coprocessors on
  // ONE node simultaneously; place them first-fit on the node with
  // enough per-device headroom, then let the per-device policy pack the
  // single-device jobs into what remains. COSMIC chooses the concrete
  // gang members at admission.
  std::vector<PendingJobView> singles;
  for (const PendingJobView& job : unpinned) {
    if (job.devices_req <= 1) {
      singles.push_back(job);
      continue;
    }
    // Group device views by node and count fitting devices.
    std::map<NodeId, std::vector<DeviceView*>> by_node;
    for (DeviceView& v : views) by_node[v.addr.node].push_back(&v);
    bool placed = false;
    for (auto& [node, node_views] : by_node) {
      std::stable_sort(node_views.begin(), node_views.end(),
                       [](const DeviceView* a, const DeviceView* b) {
                         return a->free_memory_mib > b->free_memory_mib;
                       });
      if (node_views.size() < static_cast<std::size_t>(job.devices_req) ||
          node_views[static_cast<std::size_t>(job.devices_req) - 1]
                  ->free_memory_mib < job.mem_req_mib) {
        continue;
      }
      for (int k = 0; k < job.devices_req; ++k) {
        node_views[static_cast<std::size_t>(k)]->free_memory_mib -=
            job.mem_req_mib;
      }
      publish_pin(job.id, node, std::nullopt);
      placed = true;
      break;
    }
    (void)placed;  // unplaced gangs simply wait for a later cycle
  }

  const std::vector<Assignment> assignments = policy_->assign(singles, views);

  // Publish decisions through qedit only — the transparent integration.
  for (const Assignment& a : assignments) {
    publish_pin(a.job, a.device.node, a.device.device);
  }
}

}  // namespace phisched::core
