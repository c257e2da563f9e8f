/// \file test_spec.cpp
/// \brief CaseSpec encode/decode, clamping, case derivation and shrinking.

#include "testkit/spec.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "common/parse_error.hpp"

namespace oagrid::testkit {
namespace {

TEST(CaseSpec, EncodeDecodeRoundTrip) {
  for (std::uint64_t index = 0; index < 50; ++index) {
    const CaseSpec spec = spec_for_case(42, index);
    const CaseSpec back = CaseSpec::decode(spec.encode());
    EXPECT_EQ(back, spec) << "case " << index << ": " << spec.encode();
  }
}

TEST(CaseSpec, DecodePartialSpecKeepsDefaults) {
  const CaseSpec spec = CaseSpec::decode("seed=9,months=2");
  CaseSpec expected;
  expected.seed = 9;
  expected.months = 2;
  EXPECT_EQ(spec, expected);
}

TEST(CaseSpec, DecodeRejectsUnknownField) {
  try {
    (void)CaseSpec::decode("seed=1,bogus=3");
    FAIL() << "expected ParseError";
  } catch (const ParseError& error) {
    EXPECT_EQ(error.source(), "spec");
    EXPECT_NE(error.message().find("bogus"), std::string::npos);
  }
}

TEST(CaseSpec, DecodeRejectsBadValue) {
  EXPECT_THROW((void)CaseSpec::decode("months=banana"), ParseError);
  EXPECT_THROW((void)CaseSpec::decode("seed=-1"), ParseError);
  EXPECT_THROW((void)CaseSpec::decode("divisible=2"), ParseError);
}

TEST(CaseSpec, DecodeRejectsMissingEquals) {
  EXPECT_THROW((void)CaseSpec::decode("months"), ParseError);
}

TEST(CaseSpec, ClampPullsEveryKnobIntoRange) {
  CaseSpec spec;
  spec.seed = 0;
  spec.clusters = 99;
  spec.scenarios = 0;
  spec.months = 1000;
  spec.net_kind = -3;
  spec.fault_kind = 17;
  spec.checkpoint_months = 0;
  spec.recovery = 9;
  spec.heuristic = -1;
  spec.campaigns = -2;
  spec.kills = 100;
  spec.snapshot_every = -4;
  spec.clamp();
  EXPECT_EQ(spec.seed, 1u);  // 0 would collapse every downstream stream
  EXPECT_EQ(spec.clusters, 4);
  EXPECT_EQ(spec.scenarios, 1);
  EXPECT_EQ(spec.months, 12);
  EXPECT_EQ(spec.net_kind, 0);
  EXPECT_EQ(spec.fault_kind, 4);
  EXPECT_EQ(spec.checkpoint_months, 1);
  EXPECT_EQ(spec.recovery, 2);
  EXPECT_EQ(spec.heuristic, 0);
  EXPECT_EQ(spec.campaigns, 0);
  EXPECT_EQ(spec.kills, 3);
  EXPECT_EQ(spec.snapshot_every, 0);
}

TEST(CaseSpec, SpecForCaseIsDeterministicAndIndexed) {
  EXPECT_EQ(spec_for_case(7, 3), spec_for_case(7, 3));
  // Derivation is a pure function of (root, index) — no shared stream — so
  // neighbouring indices must still decorrelate.
  std::set<std::string> seen;
  for (std::uint64_t index = 0; index < 20; ++index)
    seen.insert(spec_for_case(7, index).encode());
  EXPECT_EQ(seen.size(), 20u);
  EXPECT_NE(spec_for_case(7, 0), spec_for_case(8, 0));
}

TEST(CaseSpec, ShrinkCandidatesAreDistinctAndClamped) {
  for (std::uint64_t index = 0; index < 30; ++index) {
    const CaseSpec spec = spec_for_case(11, index);
    for (const CaseSpec& candidate : shrink_candidates(spec)) {
      EXPECT_FALSE(candidate == spec);
      CaseSpec clamped = candidate;
      clamped.clamp();
      EXPECT_EQ(clamped, candidate) << "candidate escaped the valid range";
      EXPECT_EQ(candidate.seed, spec.seed)
          << "shrinking must never reshuffle the entropy";
    }
  }
}

TEST(CaseSpec, ShrinkNeverGrowsASubsystemBack) {
  CaseSpec spec;
  spec.net_kind = 0;  // no network: no candidate may re-attach one
  for (const CaseSpec& candidate : shrink_candidates(spec))
    EXPECT_EQ(candidate.net_kind, 0);
}

TEST(CaseSpec, MinimalSpecHasNoCandidates) {
  CaseSpec spec;
  spec.seed = 5;
  spec.clusters = 1;
  spec.scenarios = 1;
  spec.months = 1;
  spec.divisible_tables = true;
  spec.net_kind = 0;
  spec.fault_kind = 0;
  spec.checkpoint_months = 1;
  spec.recovery = 0;
  spec.heuristic = 0;
  spec.campaigns = 0;
  spec.kills = 0;
  spec.group_commit = false;
  spec.snapshot_every = 0;
  EXPECT_TRUE(shrink_candidates(spec).empty())
      << "a fully minimal spec must be a shrink fixed point";
}

}  // namespace
}  // namespace oagrid::testkit
