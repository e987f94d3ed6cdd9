#include "condor/ads.hpp"

namespace phisched::condor {

std::string per_device_memory_attr(DeviceId d) {
  return "PhiFreeMemory" + std::to_string(d);
}

std::string per_device_threads_attr(DeviceId d) {
  return "PhiFreeThreads" + std::to_string(d);
}

std::string per_device_hw_threads_attr(DeviceId d) {
  return "PhiHwThreads" + std::to_string(d);
}

std::string per_device_total_memory_attr(DeviceId d) {
  return "PhiTotalMemory" + std::to_string(d);
}

std::string per_device_free_bw_attr(DeviceId d) {
  return "PhiFreeBandwidth" + std::to_string(d);
}

std::string machine_name(NodeId node) {
  return "node" + std::to_string(node);
}

std::string exclusive_requirements() {
  return "TARGET.PhiFreeDevices >= MY.RequestPhiDevices && "
         "TARGET.FreeSlots >= 1";
}

std::string sharing_requirements() {
  return "TARGET.PhiFreeMemory >= MY.RequestPhiMemory && "
         "TARGET.FreeSlots >= 1";
}

std::string arbitrary_requirements() { return "TARGET.FreeSlots >= 1"; }

std::string pinned_requirements(NodeId node) {
  return "TARGET.Name == \"" + machine_name(node) + "\" && " +
         sharing_requirements();
}

classad::ClassAd make_job_ad(const workload::JobSpec& job,
                             const std::string& requirements) {
  classad::ClassAd ad;
  ad.insert_integer(kAttrJobId, static_cast<std::int64_t>(job.id));
  ad.insert_integer(kAttrRequestPhiMemory, job.mem_req_mib);
  ad.insert_integer(kAttrRequestPhiThreads, job.threads_req);
  ad.insert_integer(kAttrRequestPhiDevices, job.devices_req);
  if (job.mem_bw_mib_s > 0.0) {
    ad.insert_real(kAttrRequestPhiMemBandwidth, job.mem_bw_mib_s);
  }
  ad.insert_expr(kAttrRequirements, requirements);
  return ad;
}

std::vector<DeviceAd> device_ads(const classad::ClassAd& machine) {
  const std::optional<MiB> node_free = machine.eval_integer(kAttrPhiFreeMemory);
  const std::optional<MiB> node_total =
      machine.eval_integer(kAttrPhiTotalMemory);
  const auto node_hw = static_cast<ThreadCount>(
      machine.eval_integer(kAttrPhiHwThreads).value_or(240));
  const std::int64_t count = machine.eval_integer(kAttrPhiDevices).value_or(0);
  std::vector<DeviceAd> cards;
  for (DeviceId d = 0; d < count; ++d) {
    DeviceAd card;
    card.free_memory_mib = machine.eval_integer(per_device_memory_attr(d))
                               .value_or(node_free.value_or(0));
    card.total_memory_mib =
        machine.eval_integer(per_device_total_memory_attr(d))
            .value_or(node_total.value_or(card.free_memory_mib));
    card.hw_threads = static_cast<ThreadCount>(
        machine.eval_integer(per_device_hw_threads_attr(d)).value_or(node_hw));
    card.free_threads = static_cast<ThreadCount>(
        machine.eval_integer(per_device_threads_attr(d))
            .value_or(card.hw_threads));
    card.free_bw = machine.eval_real(per_device_free_bw_attr(d)).value_or(-1.0);
    cards.push_back(card);
  }
  return cards;
}

JobRequest job_request(const classad::ClassAd& job) {
  JobRequest request;
  request.mem_mib = job.eval_integer(kAttrRequestPhiMemory).value_or(0);
  request.threads = static_cast<ThreadCount>(
      job.eval_integer(kAttrRequestPhiThreads).value_or(0));
  request.devices = static_cast<int>(
      job.eval_integer(kAttrRequestPhiDevices).value_or(1));
  request.bw = job.eval_real(kAttrRequestPhiMemBandwidth).value_or(0.0);
  return request;
}

JobView job_view(const classad::ClassAd& job) {
  JobView view;
  view.request = job_request(job);
  view.never_met = classad::requirements_never_met(job);
  view.required_name = classad::required_name(job);
  view.pinned_device = job.eval_integer(kAttrPinnedDevice);
  view.pinned_node = job.has(kAttrPinnedNode);
  return view;
}

}  // namespace phisched::condor
