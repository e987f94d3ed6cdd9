#include "condor/ads.hpp"

#include <gtest/gtest.h>

#include "workload/jobspec.hpp"

namespace phisched::condor {
namespace {

workload::JobSpec job_spec() {
  workload::JobSpec job;
  job.id = 17;
  job.mem_req_mib = 1500;
  job.threads_req = 120;
  return job;
}

TEST(Ads, MachineNameFormat) {
  EXPECT_EQ(machine_name(0), "node0");
  EXPECT_EQ(machine_name(12), "node12");
}

TEST(Ads, PerDeviceAttrNames) {
  EXPECT_EQ(per_device_memory_attr(0), "PhiFreeMemory0");
  EXPECT_EQ(per_device_threads_attr(1), "PhiFreeThreads1");
}

TEST(Ads, JobAdCarriesDeclaredRequirements) {
  const auto ad = make_job_ad(job_spec(), sharing_requirements());
  EXPECT_EQ(ad.eval_integer(kAttrJobId), 17);
  EXPECT_EQ(ad.eval_integer(kAttrRequestPhiMemory), 1500);
  EXPECT_EQ(ad.eval_integer(kAttrRequestPhiThreads), 120);
  EXPECT_EQ(ad.eval_integer(kAttrRequestPhiDevices), 1);
  EXPECT_TRUE(ad.has(kAttrRequirements));
}

TEST(Ads, DeviceAdsFallbackChain) {
  // Card 0 publishes its own attributes; card 1 falls back to the
  // node-level ones; a bare ad falls back to the defaults.
  classad::ClassAd ad;
  ad.insert_integer(kAttrPhiDevices, 2);
  ad.insert_integer(kAttrPhiFreeMemory, 3000);
  ad.insert_integer(kAttrPhiTotalMemory, 7680);
  ad.insert_integer(kAttrPhiHwThreads, 244);
  ad.insert_integer(per_device_memory_attr(0), 1000);
  ad.insert_integer(per_device_total_memory_attr(0), 5632);
  ad.insert_integer(per_device_hw_threads_attr(0), 228);
  ad.insert_integer(per_device_threads_attr(0), -12);
  ad.insert_real(per_device_free_bw_attr(0), 2500.0);
  const std::vector<DeviceAd> cards = device_ads(ad);
  ASSERT_EQ(cards.size(), 2u);
  EXPECT_EQ(cards[0].free_memory_mib, 1000);
  EXPECT_EQ(cards[0].total_memory_mib, 5632);
  EXPECT_EQ(cards[0].hw_threads, 228);
  EXPECT_EQ(cards[0].free_threads, -12);
  EXPECT_EQ(cards[0].free_bw, 2500.0);
  EXPECT_EQ(cards[1].free_memory_mib, 3000);
  EXPECT_EQ(cards[1].total_memory_mib, 7680);
  EXPECT_EQ(cards[1].hw_threads, 244);
  EXPECT_EQ(cards[1].free_threads, 244);  // an idle card
  EXPECT_EQ(cards[1].free_bw, -1.0);      // contention model off

  classad::ClassAd bare;
  bare.insert_integer(kAttrPhiDevices, 1);
  const std::vector<DeviceAd> defaults = device_ads(bare);
  ASSERT_EQ(defaults.size(), 1u);
  EXPECT_EQ(defaults[0].free_memory_mib, 0);
  EXPECT_EQ(defaults[0].total_memory_mib, 0);
  EXPECT_EQ(defaults[0].hw_threads, 240);
  EXPECT_EQ(defaults[0].free_threads, 240);
  EXPECT_EQ(defaults[0].free_bw, -1.0);

  // No PhiDevices: no cards, whatever else the ad says.
  ad.erase(kAttrPhiDevices);
  EXPECT_TRUE(device_ads(ad).empty());
}

TEST(Ads, JobRequestDefaultsWhatTheAdLeavesOut) {
  workload::JobSpec spec = job_spec();
  spec.devices_req = 2;
  spec.mem_bw_mib_s = 800.0;
  const JobRequest declared = job_request(make_job_ad(spec, "true"));
  EXPECT_EQ(declared.mem_mib, 1500);
  EXPECT_EQ(declared.threads, 120);
  EXPECT_EQ(declared.devices, 2);
  EXPECT_EQ(declared.bw, 800.0);

  const JobRequest bare = job_request(classad::ClassAd{});
  EXPECT_EQ(bare.mem_mib, 0);
  EXPECT_EQ(bare.threads, 0);
  EXPECT_EQ(bare.devices, 1);
  EXPECT_EQ(bare.bw, 0.0);
}

classad::ClassAd machine(std::int64_t free_mem, std::int64_t free_devices,
                         std::int64_t free_slots, const char* name = "node0") {
  classad::ClassAd ad;
  ad.insert_string(kAttrName, name);
  ad.insert_integer(kAttrPhiFreeMemory, free_mem);
  ad.insert_integer(kAttrPhiFreeDevices, free_devices);
  ad.insert_integer(kAttrFreeSlots, free_slots);
  return ad;
}

TEST(Ads, ExclusiveRequirementsNeedWholeDevice) {
  const auto ad = make_job_ad(job_spec(), exclusive_requirements());
  EXPECT_TRUE(classad::requirements_met(ad, machine(8000, 1, 4)));
  EXPECT_FALSE(classad::requirements_met(ad, machine(8000, 0, 4)));
  EXPECT_FALSE(classad::requirements_met(ad, machine(8000, 1, 0)));
}

TEST(Ads, SharingRequirementsCheckMemory) {
  const auto ad = make_job_ad(job_spec(), sharing_requirements());
  EXPECT_TRUE(classad::requirements_met(ad, machine(1500, 0, 1)));
  EXPECT_FALSE(classad::requirements_met(ad, machine(1499, 0, 1)));
  EXPECT_FALSE(classad::requirements_met(ad, machine(1500, 0, 0)));
}

TEST(Ads, ArbitraryRequirementsIgnoreMemory) {
  const auto ad = make_job_ad(job_spec(), arbitrary_requirements());
  EXPECT_TRUE(classad::requirements_met(ad, machine(0, 0, 1)));
  EXPECT_FALSE(classad::requirements_met(ad, machine(0, 0, 0)));
}

TEST(Ads, PinnedRequirementsMatchOnlyThatNode) {
  const auto ad = make_job_ad(job_spec(), pinned_requirements(3));
  EXPECT_TRUE(
      classad::requirements_met(ad, machine(4000, 0, 1, "node3")));
  EXPECT_FALSE(
      classad::requirements_met(ad, machine(4000, 0, 1, "node4")));
  // Memory guard survives the pin.
  EXPECT_FALSE(
      classad::requirements_met(ad, machine(1000, 0, 1, "node3")));
}

}  // namespace
}  // namespace phisched::condor
