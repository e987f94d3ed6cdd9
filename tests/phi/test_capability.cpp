// Per-device capability layer: the KNC spec table, the --devices fleet
// grammar, and the homogeneous identity the equivalence suite depends on
// (a parsed "5110P" must equal the default-constructed capability).
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "phi/capability.hpp"

namespace phisched::phi {
namespace {

TEST(Capability, DefaultIsThe5110P) {
  const DeviceCapability def;
  EXPECT_EQ(def.generation, "5110P");
  const auto parsed = capability_from_generation("5110P");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, def);
  // The spec-table row must also match PhiHardware's defaults exactly.
  EXPECT_EQ(def.hw, PhiHardware{});
}

TEST(Capability, SpecTableGeometry) {
  const auto a = capability_from_generation("3120A");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->hw.cores, 57);
  EXPECT_EQ(a->hw.memory_mib, 6144);
  EXPECT_EQ(a->mem_bandwidth_mib_s, 245760.0);

  const auto p = capability_from_generation("7120P");
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->hw.cores, 61);
  EXPECT_EQ(p->hw.memory_mib, 16384);
  EXPECT_EQ(p->mem_bandwidth_mib_s, 360448.0);
}

TEST(Capability, LookupIsCaseInsensitive) {
  EXPECT_TRUE(capability_from_generation("7120p").has_value());
  EXPECT_TRUE(capability_from_generation("3120a").has_value());
  EXPECT_FALSE(capability_from_generation("8120P").has_value());
  EXPECT_FALSE(capability_from_generation("").has_value());
}

TEST(Capability, ParseSpecCountsAndOrder) {
  const auto fleet = parse_device_spec("2x5110P+1x7120P");
  ASSERT_EQ(fleet.size(), 3u);
  EXPECT_EQ(fleet[0].generation, "5110P");
  EXPECT_EQ(fleet[1].generation, "5110P");
  EXPECT_EQ(fleet[2].generation, "7120P");
}

TEST(Capability, ParseSpecBareGenerationMeansOne) {
  const auto fleet = parse_device_spec("7120P");
  ASSERT_EQ(fleet.size(), 1u);
  EXPECT_EQ(fleet[0].generation, "7120P");
}

TEST(Capability, ParseSpecBareCountMeansDefaultCards) {
  EXPECT_EQ(parse_device_spec("1"), std::vector<DeviceCapability>(1));
  EXPECT_EQ(parse_device_spec("3"), parse_device_spec("3x5110P"));
  EXPECT_EQ(parse_device_spec("2+7120P"), parse_device_spec("2x5110P+7120P"));
  EXPECT_THROW(parse_device_spec("0"), std::invalid_argument);
}

TEST(Capability, ParseSpecBoundsCardsPerNode) {
  const auto bound = static_cast<std::size_t>(kMaxDevicesPerNode);
  const std::string at = std::to_string(bound);
  const std::string past = std::to_string(bound + 1);
  EXPECT_EQ(parse_device_spec(at).size(), bound);
  EXPECT_EQ(parse_device_spec("7120P+" + std::to_string(bound - 1)).size(),
            bound);
  // Past the bound, in every form; the error names the group that
  // crosses it (the spec's last) and the bound.
  const std::string huge = "99999999999999999999";
  for (const std::string& spec :
       {past, past + "x5110P", "7120P+" + at, huge, huge + "x5110P"}) {
    try {
      static_cast<void>(parse_device_spec(spec));
      ADD_FAILURE() << spec << " was accepted";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      const std::string group = spec.substr(spec.find('+') + 1);
      EXPECT_NE(what.find("'" + group + "'"), std::string::npos) << what;
      EXPECT_NE(what.find(at), std::string::npos) << what;
    }
  }
}

TEST(Capability, SpecRoundTrips) {
  for (const char* spec :
       {"2x5110P+1x7120P", "5110P", "3x3120A", "7120P+7120P"}) {
    const auto fleet = parse_device_spec(spec);
    const std::string canonical = device_spec_to_string(fleet);
    EXPECT_EQ(parse_device_spec(canonical), fleet) << spec;
  }
  // Canonical form run-length encodes and omits the 1x prefix.
  EXPECT_EQ(device_spec_to_string(parse_device_spec("5110P+5110P+7120P")),
            "2x5110P+7120P");
}

TEST(Capability, ParseSpecRejectsMalformedInput) {
  EXPECT_THROW(parse_device_spec(""), std::invalid_argument);
  EXPECT_THROW(parse_device_spec("+"), std::invalid_argument);
  EXPECT_THROW(parse_device_spec("2x5110P+"), std::invalid_argument);
  EXPECT_THROW(parse_device_spec("0x5110P"), std::invalid_argument);
  EXPECT_THROW(parse_device_spec("-1x5110P"), std::invalid_argument);
  EXPECT_THROW(parse_device_spec("2x"), std::invalid_argument);
  EXPECT_THROW(parse_device_spec("2xKNL"), std::invalid_argument);
  EXPECT_THROW(parse_device_spec("5110"), std::invalid_argument);  // 5110 cards
}

TEST(Capability, UnknownGenerationErrorNamesTheOptions) {
  try {
    static_cast<void>(parse_device_spec("2xKNL"));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("KNL"), std::string::npos);
    EXPECT_NE(what.find("5110P"), std::string::npos);
  }
}

TEST(MemBw, BudgetIsSaturationFraction) {
  const DeviceCapability cap;  // 5110P: 327680 MiB/s aggregate
  MemBwConfig off;
  EXPECT_LT(off.budget_mib_s(cap), 0.0);  // model off: unconstrained
  MemBwConfig on;
  on.contention = true;
  on.saturation = 0.5;
  EXPECT_DOUBLE_EQ(on.budget_mib_s(cap), 163840.0);
}

}  // namespace
}  // namespace phisched::phi
