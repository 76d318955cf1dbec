#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "elastic/enforcer.hpp"
#include "elastic/threshold_policy.hpp"

namespace esh::elastic {
namespace {

SliceView slice(std::uint64_t id, std::uint64_t host, double cpu,
                std::size_t bytes = 1000) {
  return SliceView{SliceId{id}, HostId{host}, cpu, bytes, false, {}};
}

// ---- subset-sum selection -----------------------------------------------------

TEST(SubsetSum, PicksExactCover) {
  std::vector<SliceView> slices{
      slice(1, 1, 0.10), slice(2, 1, 0.20), slice(3, 1, 0.30)};
  const auto chosen = select_slices_min_state(slices, 0.20);
  double sum = 0.0;
  for (auto i : chosen) sum += slices[i].cpu;
  EXPECT_GE(sum, 0.20 - 1e-9);
}

TEST(SubsetSum, MinimizesStateTransferAmongValidSets) {
  // Both {1} (cpu .3, 9000B) and {2,3} (cpu .3, 2000B) cover 0.25; the
  // enforcer must prefer the cheaper state transfer.
  std::vector<SliceView> slices{
      slice(1, 1, 0.30, 9000), slice(2, 1, 0.15, 1000),
      slice(3, 1, 0.15, 1000)};
  const auto chosen = select_slices_min_state(slices, 0.25);
  std::set<std::uint64_t> ids;
  for (auto i : chosen) ids.insert(slices[i].slice.value());
  EXPECT_EQ(ids, (std::set<std::uint64_t>{2, 3}));
}

TEST(SubsetSum, SelectsAllWhenInsufficient) {
  std::vector<SliceView> slices{slice(1, 1, 0.1), slice(2, 1, 0.1)};
  const auto chosen = select_slices_min_state(slices, 0.9);
  EXPECT_EQ(chosen.size(), 2u);
}

TEST(SubsetSum, EmptyForNonPositiveRequirement) {
  std::vector<SliceView> slices{slice(1, 1, 0.1)};
  EXPECT_TRUE(select_slices_min_state(slices, 0.0).empty());
  EXPECT_TRUE(select_slices_min_state({}, 0.5).empty());
}

TEST(SubsetSum, NoDuplicateSelections) {
  std::vector<SliceView> slices;
  for (std::uint64_t i = 0; i < 20; ++i) {
    slices.push_back(slice(i + 1, 1, 0.05, 100 * (i + 1)));
  }
  const auto chosen = select_slices_min_state(slices, 0.42);
  std::set<std::size_t> unique(chosen.begin(), chosen.end());
  EXPECT_EQ(unique.size(), chosen.size());
  double sum = 0.0;
  for (auto i : chosen) sum += slices[i].cpu;
  EXPECT_GE(sum, 0.42 - 1e-9);
}

// Property sweep: the selected subset always covers the requirement (when
// coverable) with no duplicates, across many random instances.
class SubsetSumProperty : public ::testing::TestWithParam<int> {};

TEST_P(SubsetSumProperty, AlwaysCoversWithoutDuplicates) {
  Rng rng{static_cast<std::uint64_t>(GetParam())};
  std::vector<SliceView> slices;
  const std::size_t n = 3 + rng.next_below(20);
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double cpu = rng.uniform(0.01, 0.25);
    total += cpu;
    slices.push_back(slice(i + 1, 1, cpu, 100 + rng.next_below(10'000)));
  }
  const double required = rng.uniform(0.05, total * 0.8);
  const auto chosen = select_slices_min_state(slices, required);
  std::set<std::size_t> unique(chosen.begin(), chosen.end());
  EXPECT_EQ(unique.size(), chosen.size());
  double sum = 0.0;
  for (auto i : chosen) sum += slices[i].cpu;
  // Permille discretization can undershoot by at most n/1000.
  EXPECT_GE(sum, required - 0.001 * static_cast<double>(n) - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, SubsetSumProperty,
                         ::testing::Range(1, 25));

// ---- first-fit placement -------------------------------------------------------

TEST(FirstFit, PlacesHeaviestFirstUnderCap) {
  std::vector<SliceView> moving{slice(1, 9, 0.10), slice(2, 9, 0.30)};
  std::vector<HostView> bins{{HostId{1}, 0.25}, {HostId{2}, 0.10}};
  const auto moves = first_fit_place(moving, bins, 0.5, 0);
  ASSERT_EQ(moves.size(), 2u);
  // Heaviest (slice 2, 0.30) first: host1 0.25+0.30 > 0.5 -> host2.
  EXPECT_EQ(moves[0].slice, SliceId{2});
  EXPECT_EQ(moves[0].dst, HostId{2});
  // slice 1 (0.10) fits on host1.
  EXPECT_EQ(moves[1].dst, HostId{1});
  EXPECT_EQ(new_hosts_of(moves), 0u);
}

TEST(FirstFit, SpillsToNewBins) {
  std::vector<SliceView> moving{slice(1, 9, 0.4), slice(2, 9, 0.4)};
  std::vector<HostView> bins{{HostId{1}, 0.45}};
  const auto moves = first_fit_place(moving, bins, 0.5, 2);
  ASSERT_EQ(moves.size(), 2u);
  EXPECT_TRUE(moves[0].new_host_index.has_value());
  EXPECT_TRUE(moves[1].new_host_index.has_value());
  EXPECT_NE(*moves[0].new_host_index, *moves[1].new_host_index);
  EXPECT_EQ(new_hosts_of(moves), 2u);
}

TEST(FirstFit, OpensExtraBinWhenEverythingFull) {
  std::vector<SliceView> moving{slice(1, 9, 0.45)};
  std::vector<HostView> bins{{HostId{1}, 0.45}};
  const auto moves = first_fit_place(moving, bins, 0.5, 0);
  ASSERT_EQ(moves.size(), 1u);
  ASSERT_TRUE(moves[0].new_host_index.has_value());
  EXPECT_EQ(new_hosts_of(moves), 1u);
}

// ---- policy rules ---------------------------------------------------------------

SystemView make_view(SimTime t, std::vector<HostView> hosts,
                     std::vector<SliceView> slices) {
  SystemView v;
  v.time = t;
  v.hosts = std::move(hosts);
  v.slices = std::move(slices);
  return v;
}

TEST(Enforcer, NoActionInsideBand) {
  Enforcer enforcer{PolicyConfig{}};
  const auto view = make_view(
      seconds(100), {{HostId{1}, 0.5}, {HostId{2}, 0.55}},
      {slice(1, 1, 0.25), slice(2, 1, 0.25), slice(3, 2, 0.55)});
  EXPECT_TRUE(enforcer.evaluate(view).empty());
}

TEST(Enforcer, ScaleOutAboveHighWatermark) {
  // The paper's Figure 5 scenario: two hosts at 74 % and 73 %; scale out
  // must move slices to one new host, choosing the sets with the smallest
  // memory among CPU-equivalent options.
  PolicyConfig config;
  Enforcer enforcer{config};
  std::vector<SliceView> slices{
      // host 1: AP:1 and AP:2 small state, M:1 large state
      slice(1, 1, 0.12, 100),   slice(2, 1, 0.12, 100),
      slice(3, 1, 0.50, 50000),
      // host 2: EP:1, EP:2 small, M:2 large
      slice(4, 2, 0.12, 200),   slice(5, 2, 0.11, 200),
      slice(6, 2, 0.50, 50000),
  };
  const auto view = make_view(seconds(60),
                              {{HostId{1}, 0.74}, {HostId{2}, 0.73}}, slices);
  const auto plan = enforcer.evaluate(view);
  EXPECT_EQ(plan.reason, MigrationPlan::Reason::kScaleOut);
  ASSERT_FALSE(plan.moves.empty());
  EXPECT_GE(plan.new_hosts, 1u);
  // The cheap-state slices (AP/EP) move, not the big M slices.
  for (const auto& mv : plan.moves) {
    EXPECT_NE(mv.slice, SliceId{3});
    EXPECT_NE(mv.slice, SliceId{6});
  }
}

TEST(Enforcer, ScaleInBelowLowWatermark) {
  PolicyConfig config;
  Enforcer enforcer{config};
  const auto view = make_view(
      seconds(60),
      {{HostId{1}, 0.2}, {HostId{2}, 0.15}, {HostId{3}, 0.1}},
      {slice(1, 1, 0.2), slice(2, 2, 0.15), slice(3, 3, 0.1)});
  const auto plan = enforcer.evaluate(view);
  EXPECT_EQ(plan.reason, MigrationPlan::Reason::kScaleIn);
  EXPECT_FALSE(plan.releases.empty());
  // Least-loaded host released first.
  EXPECT_EQ(plan.releases.front(), HostId{3});
  // Its slices get new destinations among surviving hosts.
  for (const auto& mv : plan.moves) {
    EXPECT_FALSE(mv.new_host_index.has_value());
    EXPECT_NE(mv.dst, HostId{3});
  }
}

TEST(Enforcer, ScaleInNeverReleasesLastHost) {
  Enforcer enforcer{PolicyConfig{}};
  const auto view =
      make_view(seconds(60), {{HostId{1}, 0.01}}, {slice(1, 1, 0.01)});
  EXPECT_TRUE(enforcer.evaluate(view).empty());
}

TEST(Enforcer, GracePeriodSuppressesBackToBackActions) {
  PolicyConfig config;
  config.grace = seconds(30);
  config.scale_out_grace = seconds(10);
  Enforcer enforcer{config};
  const auto overloaded = make_view(
      seconds(10), {{HostId{1}, 0.9}},
      {slice(1, 1, 0.45), slice(2, 1, 0.45)});
  EXPECT_FALSE(enforcer.evaluate(overloaded).empty());
  // Within even the fast scale-out grace: suppressed.
  const auto immediately = make_view(
      seconds(15), {{HostId{1}, 0.9}, {HostId{2}, 0.6}},
      {slice(1, 1, 0.45), slice(2, 1, 0.45), slice(3, 2, 0.6)});
  EXPECT_TRUE(enforcer.evaluate(immediately).empty());
  // Scale-out chains at the fast cadence (load increases are urgent).
  const auto chained = make_view(
      seconds(21), {{HostId{1}, 0.9}, {HostId{2}, 0.6}},
      {slice(1, 1, 0.45), slice(2, 1, 0.45), slice(3, 2, 0.6)});
  EXPECT_FALSE(enforcer.evaluate(chained).empty());
  // Scale-in still waits out the full grace period after the last action.
  const auto idle_soon = make_view(
      seconds(40), {{HostId{1}, 0.1}, {HostId{2}, 0.1}},
      {slice(1, 1, 0.1), slice(2, 2, 0.1)});
  EXPECT_TRUE(enforcer.evaluate(idle_soon).empty());
  const auto idle_later = make_view(
      seconds(52), {{HostId{1}, 0.1}, {HostId{2}, 0.1}},
      {slice(1, 1, 0.1), slice(2, 2, 0.1)});
  EXPECT_FALSE(enforcer.evaluate(idle_later).empty());
}

TEST(Enforcer, LocalHighRebalancesWithoutGlobalViolation) {
  // Average is fine (50 %) but one host runs hot: local rule moves load.
  Enforcer enforcer{PolicyConfig{}};
  const auto view = make_view(
      seconds(60), {{HostId{1}, 0.9}, {HostId{2}, 0.1}},
      {slice(1, 1, 0.45), slice(2, 1, 0.45), slice(3, 2, 0.1)});
  const auto plan = enforcer.evaluate(view);
  EXPECT_EQ(plan.reason, MigrationPlan::Reason::kLocalHigh);
  ASSERT_FALSE(plan.moves.empty());
  for (const auto& mv : plan.moves) {
    if (!mv.new_host_index.has_value()) {
      EXPECT_EQ(mv.dst, HostId{2});
    }
  }
}

TEST(Enforcer, LocalLowEmptiesIdleHost) {
  // Global average (0.32) is inside the band; host 3 alone is nearly idle
  // and its slice fits on host 2 without breaching the placement cap.
  Enforcer enforcer{PolicyConfig{}};
  const auto view = make_view(
      seconds(60),
      {{HostId{1}, 0.45}, {HostId{2}, 0.42}, {HostId{3}, 0.08}},
      {slice(1, 1, 0.45), slice(2, 2, 0.42), slice(3, 3, 0.08)});
  const auto plan = enforcer.evaluate(view);
  EXPECT_EQ(plan.reason, MigrationPlan::Reason::kLocalLow);
  ASSERT_EQ(plan.releases.size(), 1u);
  EXPECT_EQ(plan.releases[0], HostId{3});
  ASSERT_EQ(plan.moves.size(), 1u);
  EXPECT_EQ(plan.moves[0].dst, HostId{2});
}

TEST(Enforcer, EmptyViewIsNoOp) {
  Enforcer enforcer{PolicyConfig{}};
  EXPECT_TRUE(enforcer.evaluate(SystemView{}).empty());
}

TEST(Enforcer, RejectsInvalidPolicy) {
  PolicyConfig bad;
  bad.global_low = 0.8;
  bad.target = 0.5;
  EXPECT_THROW(Enforcer{bad}, std::invalid_argument);
}

// ---- threshold baseline ---------------------------------------------------

TEST(ThresholdEnforcer, StepsOutOneHostAboveThreshold) {
  ThresholdEnforcer enforcer{ThresholdPolicyConfig{}};
  const auto view = make_view(
      seconds(60), {{HostId{1}, 0.9}},
      {slice(1, 1, 0.5), slice(2, 1, 0.4)});
  const auto plan = enforcer.evaluate(view);
  EXPECT_EQ(plan.reason, MigrationPlan::Reason::kScaleOut);
  EXPECT_EQ(plan.new_hosts, 1u);
  ASSERT_FALSE(plan.moves.empty());
  // Naive: heaviest slice moves first.
  EXPECT_EQ(plan.moves[0].slice, SliceId{1});
}

TEST(ThresholdEnforcer, StepsInOneHostBelowThreshold) {
  ThresholdEnforcer enforcer{ThresholdPolicyConfig{}};
  const auto view = make_view(
      seconds(60), {{HostId{1}, 0.2}, {HostId{2}, 0.1}},
      {slice(1, 1, 0.2), slice(2, 2, 0.1)});
  const auto plan = enforcer.evaluate(view);
  EXPECT_EQ(plan.reason, MigrationPlan::Reason::kScaleIn);
  ASSERT_EQ(plan.releases.size(), 1u);
  EXPECT_EQ(plan.releases[0], HostId{2});  // least loaded
  for (const auto& mv : plan.moves) {
    EXPECT_NE(mv.dst, HostId{2});
  }
}

TEST(ThresholdEnforcer, CooldownBetweenActions) {
  ThresholdPolicyConfig config;
  config.cooldown = seconds(30);
  ThresholdEnforcer enforcer{config};
  const auto hot = make_view(seconds(10), {{HostId{1}, 0.9}},
                             {slice(1, 1, 0.9)});
  EXPECT_FALSE(enforcer.evaluate(hot).empty());
  const auto hot2 = make_view(seconds(20), {{HostId{1}, 0.9}},
                              {slice(1, 1, 0.9)});
  EXPECT_TRUE(enforcer.evaluate(hot2).empty());
}

TEST(ThresholdEnforcer, IgnoresStateSizeDuringSelection) {
  // Unlike the paper's enforcer, the baseline happily moves the slice with
  // the most state if it has the highest CPU.
  ThresholdEnforcer enforcer{ThresholdPolicyConfig{}};
  const auto view = make_view(
      seconds(60), {{HostId{1}, 0.9}},
      {slice(1, 1, 0.5, 50'000'000), slice(2, 1, 0.45, 100)});
  const auto plan = enforcer.evaluate(view);
  ASSERT_FALSE(plan.moves.empty());
  EXPECT_EQ(plan.moves[0].slice, SliceId{1});  // huge state, moved anyway
}

// A slice above placement_cap fits no bin, so First Fit opens a new bin
// past the `extra` ones the fleet was sized for, and those stay empty. The
// plan must still count every new host a move names: the manager allocates
// new hosts by index.
TEST(Enforcer, ScaleOutNewHostsCoverEveryMoveIndex) {
  PolicyConfig config;
  config.placement_cap = 0.4;
  Enforcer enforcer{config};
  const auto plan = enforcer.evaluate(make_view(
      seconds(60), {{HostId{1}, 1.0}}, {slice(1, 1, 0.5), slice(2, 1, 0.5)}));
  ASSERT_EQ(plan.reason, MigrationPlan::Reason::kScaleOut);
  ASSERT_FALSE(plan.moves.empty());
  for (const auto& mv : plan.moves) {
    ASSERT_TRUE(mv.new_host_index.has_value());
    EXPECT_LT(*mv.new_host_index, plan.new_hosts);
  }
}

TEST(Enforcer, ScaleOutSizesNewFleetTowardTarget) {
  // One host at 100 %: total 1.0 -> need ceil(1.0/0.5) = 2 hosts.
  PolicyConfig config;
  Enforcer enforcer{config};
  std::vector<SliceView> slices;
  for (std::uint64_t i = 0; i < 10; ++i) {
    slices.push_back(slice(i + 1, 1, 0.1));
  }
  const auto plan =
      enforcer.evaluate(make_view(seconds(60), {{HostId{1}, 1.0}}, slices));
  EXPECT_EQ(plan.reason, MigrationPlan::Reason::kScaleOut);
  EXPECT_GE(plan.new_hosts, 1u);
  // Enough CPU moved to bring host 1 near the target.
  double moved = 0.0;
  for (const auto& mv : plan.moves) {
    for (const auto& s : slices) {
      if (s.slice == mv.slice) moved += s.cpu;
    }
  }
  EXPECT_GE(moved, 0.5 - 0.02);
}

}  // namespace
}  // namespace esh::elastic
