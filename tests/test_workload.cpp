#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>
#include <memory>
#include <set>

#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "sim/simulator.hpp"
#include "workload/driver.hpp"
#include "workload/generator.hpp"
#include "workload/oracle.hpp"
#include "workload/schedule.hpp"
#include "workload/slice_store.hpp"

namespace esh::workload {
namespace {

// ---- generators -----------------------------------------------------------------

TEST(PlainWorkload, SubscriptionsDeterministicPerIndex) {
  PlainWorkload a{{4, 0.01, 9}};
  PlainWorkload b{{4, 0.01, 9}};
  const auto s1 = a.subscription(5);
  const auto s2 = b.subscription(5);
  EXPECT_EQ(s1.id, s2.id);
  ASSERT_EQ(s1.predicates.size(), s2.predicates.size());
  for (std::size_t i = 0; i < s1.predicates.size(); ++i) {
    EXPECT_DOUBLE_EQ(s1.predicates[i].low, s2.predicates[i].low);
  }
}

TEST(PlainWorkload, WidthsProductEqualsMatchingRate) {
  PlainWorkload gen{{4, 0.01, 3}};
  for (std::uint64_t i = 0; i < 50; ++i) {
    const auto sub = gen.subscription(i);
    double product = 1.0;
    for (const auto& p : sub.predicates) {
      EXPECT_GE(p.low, 0.0);
      EXPECT_LE(p.high, 1.0);
      product *= p.width();
    }
    EXPECT_NEAR(product, 0.01, 1e-9);
  }
}

TEST(PlainWorkload, EmpiricalMatchingRateNearTarget) {
  PlainWorkload gen{{4, 0.02, 11}};
  std::vector<filter::Subscription> subs;
  for (std::uint64_t i = 0; i < 400; ++i) subs.push_back(gen.subscription(i));
  std::uint64_t matches = 0, trials = 0;
  for (int p = 0; p < 500; ++p) {
    const auto pub = gen.next_publication();
    for (const auto& s : subs) {
      ++trials;
      if (s.matches(pub)) ++matches;
    }
  }
  const double rate = static_cast<double>(matches) / trials;
  EXPECT_NEAR(rate, 0.02, 0.004);
}

TEST(PlainWorkload, PublicationIdsIncrease) {
  PlainWorkload gen{{4, 0.01, 5}};
  EXPECT_EQ(gen.next_publication().id, PublicationId{1});
  EXPECT_EQ(gen.next_publication().id, PublicationId{2});
}

TEST(PlainWorkload, RejectsBadParams) {
  EXPECT_THROW((PlainWorkload{{0, 0.1, 1}}), std::invalid_argument);
  EXPECT_THROW((PlainWorkload{{4, 0.0, 1}}), std::invalid_argument);
  EXPECT_THROW((PlainWorkload{{4, 1.5, 1}}), std::invalid_argument);
}

TEST(EncryptedWorkload, RoundTripMatchesPlain) {
  EncryptedWorkload enc{{4, 0.05, 21}};
  PlainWorkload plain{{4, 0.05, 21}};
  const auto esub = enc.subscription(3);
  const auto psub = plain.subscription(3);
  EXPECT_EQ(esub.id, psub.id);
  filter::Publication ppub;
  const auto epub = enc.next_publication(&ppub);
  EXPECT_EQ(filter::encrypted_match(esub, epub), psub.matches(ppub));
}

// ---- oracle --------------------------------------------------------------------

TEST(MatchOracle, DeterministicPerPublication) {
  MatchOracle oracle{{.dimensions = 4, .total_subscriptions = 10'000,
                      .matching_rate = 0.01, .m_slices = 4, .seed = 99}};
  const auto a = oracle.matches(PublicationId{42});
  const auto b = oracle.matches(PublicationId{42});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, oracle.matches(PublicationId{43}));
}

TEST(MatchOracle, MatchCountNearExpectation) {
  MatchOracle oracle{{.dimensions = 4, .total_subscriptions = 10'000,
                      .matching_rate = 0.01, .m_slices = 4, .seed = 1}};
  RunningStats counts;
  for (std::uint64_t p = 1; p <= 200; ++p) {
    counts.add(static_cast<double>(oracle.matches(PublicationId{p}).size()));
  }
  EXPECT_NEAR(counts.mean(), 100.0, 3.0);
  EXPECT_GT(counts.stddev(), 2.0);  // binomial spread, not constant
}

TEST(MatchOracle, PartitionConsistentWithFlatMatches) {
  MatchOracle oracle{{.dimensions = 4, .total_subscriptions = 5'000,
                      .matching_rate = 0.02, .m_slices = 8, .seed = 5}};
  const PublicationId pub{7};
  const auto flat = oracle.matches(pub);
  const auto partition = oracle.partitioned_matches(pub);
  ASSERT_EQ(partition->size(), 8u);
  std::vector<std::uint64_t> merged;
  for (std::size_t s = 0; s < partition->size(); ++s) {
    for (auto idx : (*partition)[s]) {
      EXPECT_EQ(oracle.slice_of(idx), s);
      merged.push_back(idx);
    }
  }
  std::sort(merged.begin(), merged.end());
  EXPECT_EQ(merged, flat);
}

TEST(MatchOracle, SkewedIdsStayUniqueAndConcentrateInBucketZero) {
  MatchOracle oracle{{.dimensions = 4, .total_subscriptions = 10'000,
                      .matching_rate = 0.01, .m_slices = 4, .seed = 9,
                      .hot_fraction = 0.55}};
  std::set<std::uint64_t> ids;
  std::size_t in_hot_bucket = 0;
  for (std::uint64_t i = 0; i < 10'000; ++i) {
    const auto id = oracle.sub_id(i);
    EXPECT_TRUE(ids.insert(id.value()).second) << "duplicate id " << i;
    // slice_of must stay the modulo of the (skewed) id, matching AP.
    EXPECT_EQ(oracle.slice_of(i), id.value() % 4);
    if (oracle.slice_of(i) == 0) ++in_hot_bucket;
  }
  EXPECT_EQ(in_hot_bucket, 5'500u);  // hot_fraction of the population
  // Uniform scheme untouched: ids are still index + 1.
  MatchOracle uniform{{.dimensions = 4, .total_subscriptions = 100,
                       .matching_rate = 0.01, .m_slices = 4, .seed = 9}};
  for (std::uint64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(uniform.sub_id(i).value(), i + 1);
  }
}

TEST(MatchOracle, ZipfSkewIsDeterministicAndConcentrated) {
  const OracleParams params{.dimensions = 4, .total_subscriptions = 10'000,
                            .matching_rate = 0.01, .m_slices = 4, .seed = 33,
                            .zipf_exponent = 1.1};
  MatchOracle a{params};
  MatchOracle b{params};
  std::uint64_t total = 0, in_top_decile = 0;
  RunningStats counts;
  for (std::uint64_t p = 1; p <= 200; ++p) {
    const auto m = a.matches(PublicationId{p});
    // Deterministic per publication id, and a without-replacement sample:
    // sorted with no duplicate indices.
    EXPECT_EQ(m, b.matches(PublicationId{p}));
    EXPECT_TRUE(std::is_sorted(m.begin(), m.end()));
    EXPECT_EQ(std::adjacent_find(m.begin(), m.end()), m.end());
    counts.add(static_cast<double>(m.size()));
    for (const std::uint64_t idx : m) {
      ++total;
      if (idx < 1'000) ++in_top_decile;
    }
  }
  // The match-count distribution is the same Binomial(n, p) as the uniform
  // oracle; only which indices carry the matches skews.
  EXPECT_NEAR(counts.mean(), 100.0, 3.0);
  // At s = 1.1 the first decile of the popularity ranking holds ~78 % of
  // the total Zipf mass; uniform sampling would put 10 % there.
  EXPECT_GT(static_cast<double>(in_top_decile), 0.6 * static_cast<double>(total));
}

TEST(MatchOracle, RejectsBadZipfAndChurnParams) {
  OracleParams bad_zipf;
  bad_zipf.zipf_exponent = -0.1;
  EXPECT_THROW((MatchOracle{bad_zipf}), std::invalid_argument);
  OracleParams bad_churn;
  bad_churn.churn_fraction = 1.5;
  EXPECT_THROW((MatchOracle{bad_churn}), std::invalid_argument);
}

TEST(ChurnStream, DeterministicWithFreshUniqueIds) {
  const OracleParams params{.dimensions = 4, .total_subscriptions = 1'000,
                            .matching_rate = 0.01, .m_slices = 4, .seed = 21,
                            .hot_fraction = 0.4, .churn_fraction = 0.2};
  auto oracle = std::make_shared<MatchOracle>(params);
  ChurnStream a{oracle, 7};
  ChurnStream b{oracle, 7};
  EXPECT_EQ(a.target_fringe(), 200u);

  // Ids of the base population plus every churned-in fringe subscription
  // must be globally unique: sub_id() is injective over all indices, even
  // under hot_fraction skew.
  std::set<std::uint64_t> ids;
  for (std::uint64_t i = 0; i < params.total_subscriptions; ++i) {
    EXPECT_TRUE(ids.insert(oracle->sub_id(i).value()).second) << i;
  }
  std::set<std::uint64_t> fringe_live;
  for (int step = 0; step < 2'000; ++step) {
    const auto ea = a.next();
    const auto eb = b.next();
    EXPECT_EQ(ea.subscribe, eb.subscribe) << step;
    EXPECT_EQ(ea.index, eb.index) << step;
    if (ea.subscribe) {
      // Fresh indices only, beyond the base population, never reused.
      EXPECT_GE(ea.index, params.total_subscriptions);
      EXPECT_TRUE(fringe_live.insert(ea.index).second) << step;
      EXPECT_TRUE(ids.insert(oracle->sub_id(ea.index).value()).second)
          << "duplicate id at step " << step;
      // AP's modulo routing applies to the fringe like any other traffic.
      EXPECT_EQ(oracle->slice_of(ea.index),
                oracle->sub_id(ea.index).value() % params.m_slices);
    } else {
      // Unsubscribes only ever target a currently live fringe index.
      EXPECT_EQ(fringe_live.erase(ea.index), 1u) << step;
    }
    EXPECT_EQ(a.live_fringe(), fringe_live.size());
  }
  // The walk reached and then held the target fringe size (within the
  // random-walk band), and kept spawning fresh subscriptions throughout.
  EXPECT_GT(a.spawned(), 500u);
  EXPECT_GT(a.live_fringe(), 100u);
  EXPECT_LT(a.live_fringe(), 400u);
}

TEST(OracleMatcher, OnlyStoredSubscriptionsMatch) {
  OracleParams params{.dimensions = 4, .total_subscriptions = 1'000,
                      .matching_rate = 0.05, .m_slices = 2, .seed = 77};
  OracleWorkload workload{params};
  auto m0 = workload.make_matcher({}, 0);
  // Store only half of slice 0's partition (even indices).
  std::set<std::uint64_t> stored;
  for (std::uint64_t i = 0; i < 1'000; ++i) {
    if (workload.oracle()->slice_of(i) == 0 && i % 2 == 0) {
      m0->add(filter::AnySubscription{workload.subscription(i)});
      stored.insert(i);
    }
  }
  const auto pub = workload.next_publication();
  const auto outcome = m0->match(filter::AnyPublication{pub});
  const auto truth = workload.oracle()->matches(pub.id);
  std::size_t expected = 0;
  for (auto idx : truth) {
    if (stored.contains(idx)) ++expected;
  }
  EXPECT_EQ(outcome.subscribers.size(), expected);
}

TEST(OracleMatcher, StateRoundTripPadsToEncryptedSize) {
  OracleParams params{.dimensions = 4, .total_subscriptions = 100,
                      .matching_rate = 0.1, .m_slices = 2, .seed = 3};
  OracleWorkload workload{params};
  cluster::CostModel cost;
  auto matcher = workload.make_matcher(cost, 0);
  std::size_t added = 0;
  for (std::uint64_t i = 0; i < 100; ++i) {
    if (workload.oracle()->slice_of(i) == 0) {
      matcher->add(filter::AnySubscription{workload.subscription(i)});
      ++added;
    }
  }
  EXPECT_EQ(matcher->subscription_count(), added);
  EXPECT_EQ(matcher->state_bytes(), added * cost.subscription_bytes(4));
  BinaryWriter w;
  matcher->serialize_state(w);
  // Serialized blob within ~2 % of the declared encrypted size.
  EXPECT_NEAR(static_cast<double>(w.size()),
              static_cast<double>(matcher->state_bytes()),
              0.05 * static_cast<double>(matcher->state_bytes()) + 64);
  auto restored = matcher->clone_empty();
  BinaryReader r{w.buffer()};
  restored->restore_state(r);
  EXPECT_EQ(restored->subscription_count(), added);
}

// ---- golden pin ----------------------------------------------------------------
//
// FNV-1a over everything the oracle lets the engine observe: sampled match
// sets, their partition by slice, the subscribers a stored slice reports,
// and checkpoint and split bytes. The constants were computed with the
// original hash-set sampler and hash-map slice store; a faster sampler or
// store must reproduce them exactly.

struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void byte(std::uint8_t b) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void bytes(const std::vector<std::byte>& data) {
    u64(data.size());
    for (const std::byte b : data) byte(std::to_integer<std::uint8_t>(b));
  }
};

OracleParams golden_params(double hot_fraction, double zipf_exponent) {
  return {.dimensions = 4, .total_subscriptions = 20'000,
          .matching_rate = 0.01, .m_slices = 8, .seed = 2024,
          .hot_fraction = hot_fraction, .zipf_exponent = zipf_exponent};
}

const OracleParams kGoldenUniform = golden_params(0.0, 0.0);
const OracleParams kGoldenHot = golden_params(0.3, 0.0);
const OracleParams kGoldenZipf = golden_params(0.0, 1.1);

std::uint64_t flat_matches_hash(const OracleParams& params) {
  const MatchOracle oracle{params};
  Fnv1a f;
  for (std::uint64_t p = 1; p <= 300; ++p) {
    const auto m = oracle.matches(PublicationId{p});
    f.u64(m.size());
    for (const std::uint64_t idx : m) f.u64(idx);
  }
  return f.h;
}

std::uint64_t partitioned_matches_hash(const OracleParams& params) {
  const MatchOracle oracle{params};
  Fnv1a f;
  for (std::uint64_t p = 1; p <= 300; ++p) {
    const auto partition = oracle.partitioned_matches(PublicationId{p});
    f.u64(partition->size());
    for (const auto& slice : *partition) {
      f.u64(slice.size());
      for (const std::uint64_t idx : slice) f.u64(idx);
    }
  }
  return f.h;
}

void hash_match_results(Fnv1a& f, filter::Matcher& m) {
  for (std::uint64_t p = 1; p <= 100; ++p) {
    filter::EncryptedPublication pub;
    pub.id = PublicationId{p};
    const auto out = m.match(filter::AnyPublication{pub});
    f.u64(out.subscribers.size());
    for (const SubscriberId s : out.subscribers) f.u64(s.value());
  }
}

// Slice 3 of the hot parameter set, filled in a scrambled order, then split
// by key coverage into a child slice (index >= m_slices scans every bucket).
std::uint64_t matcher_state_hash() {
  OracleWorkload workload{kGoldenHot};
  const auto& oracle = *workload.oracle();
  cluster::CostModel cost;
  auto parent = workload.make_matcher(cost, 3);
  std::vector<std::uint64_t> order;
  for (std::uint64_t i = 0; i < kGoldenHot.total_subscriptions; ++i) {
    if (oracle.slice_of(i) == 3) order.push_back(i);
  }
  Rng rng{5};
  rng.shuffle(order);
  for (const std::uint64_t i : order) {
    parent->add(filter::AnySubscription{workload.subscription(i)});
  }
  for (std::size_t j = 0; j < order.size(); j += 7) {
    EXPECT_TRUE(parent->remove(oracle.sub_id(order[j])));
  }
  Fnv1a f;
  f.u64(parent->subscription_count());
  BinaryWriter checkpoint;
  parent->serialize_state(checkpoint);
  f.bytes(checkpoint.buffer());
  hash_match_results(f, *parent);

  const KeyCoverage cov{.base = 8, .bucket = 3, .depth = 0, .tag = 0};
  BinaryWriter split;
  f.u64(parent->split_state(cov.split_child(), split));
  f.bytes(split.buffer());
  BinaryWriter after_split;
  parent->serialize_state(after_split);
  f.bytes(after_split.buffer());

  auto child = workload.make_matcher(cost, 8);
  BinaryReader r{split.buffer()};
  child->absorb_state(r);
  EXPECT_TRUE(r.exhausted());
  f.u64(child->subscription_count());
  hash_match_results(f, *parent);
  hash_match_results(f, *child);
  return f.h;
}

// hot_fraction only renumbers ids, so its flat index sets equal the uniform
// ones; its partitions differ.
TEST(OracleGolden, FlatMatchesUnchanged) {
  EXPECT_EQ(flat_matches_hash(kGoldenUniform), 0x9b7431c535811044ULL);
  EXPECT_EQ(flat_matches_hash(kGoldenHot), 0x9b7431c535811044ULL);
  EXPECT_EQ(flat_matches_hash(kGoldenZipf), 0xbee678d5b1187255ULL);
}

TEST(OracleGolden, PartitionedMatchesUnchanged) {
  EXPECT_EQ(partitioned_matches_hash(kGoldenUniform), 0x73d0297ec456b10eULL);
  EXPECT_EQ(partitioned_matches_hash(kGoldenHot), 0xcc4e83853deac0d4ULL);
  EXPECT_EQ(partitioned_matches_hash(kGoldenZipf), 0xcd023fc56bd4ad1bULL);
}

TEST(OracleGolden, MatcherStateAndSplitBytesUnchanged) {
  EXPECT_EQ(matcher_state_hash(), 0x4bb18c560919534fULL);
}

TEST(OracleMatcher, HugeLengthPrefixInStateIsTruncatedInput) {
  OracleWorkload workload{{.dimensions = 4, .total_subscriptions = 100,
                           .matching_rate = 0.1, .m_slices = 2, .seed = 3}};
  auto matcher = workload.make_matcher({}, 0);
  BinaryWriter huge_padding;  // one record whose padding claims 2^64-1 bytes
  huge_padding.write_u64(1);
  huge_padding.write_u64(512);
  huge_padding.write_id(SubscriptionId{2});
  huge_padding.write_id(SubscriberId{1});
  huge_padding.write_u64(UINT64_MAX);
  BinaryWriter huge_count;  // claims 2^64-1 records, holds none
  huge_count.write_u64(UINT64_MAX);
  huge_count.write_u64(512);
  for (const BinaryWriter* w : {&huge_padding, &huge_count}) {
    BinaryReader r{w->buffer()};
    try {
      matcher->restore_state(r);
      ADD_FAILURE() << "no exception";
    } catch (const std::out_of_range& e) {
      EXPECT_STREQ(e.what(), "BinaryReader: truncated input");
    } catch (const std::exception& e) {
      ADD_FAILURE() << "wrong exception: " << e.what();
    }
  }
}

TEST(OracleMatcher, StateBytesIndependentOfInsertionOrder) {
  OracleWorkload workload{{.dimensions = 4, .total_subscriptions = 3'000,
                           .matching_rate = 0.01, .m_slices = 2, .seed = 8}};
  auto forward = workload.make_matcher({}, 0);
  auto backward = workload.make_matcher({}, 0);
  for (std::uint64_t i = 0; i < 3'000; ++i) {
    forward->add(filter::AnySubscription{workload.subscription(i)});
    backward->add(
        filter::AnySubscription{workload.subscription(2'999 - i)});
  }
  BinaryWriter a;
  BinaryWriter b;
  forward->serialize_state(a);
  backward->serialize_state(b);
  EXPECT_EQ(a.buffer(), b.buffer());
}

// Each chunk reads its publications once, so with m_slices = 3 the 128
// chunks of 60 publications, overlapping their neighbours by 40, release
// every interior publication on its third read, racing with the other
// threads' reads and inserts. A second pass then reads 5,120 further
// publications once each: with the 80 edge publications still cached that
// is more than the memo's 4,096-entry backstop, so it evicts under
// contention too.
TEST(MatchOracle, PartitionedMatchesSafeAcrossThreads) {
  OracleParams params = golden_params(0.3, 0.0);
  params.m_slices = 3;
  const MatchOracle serial{params};
  const MatchOracle shared{params};
  constexpr std::size_t kChunks = 128;
  constexpr std::uint64_t kBackstopBase = 10'000;
  std::vector<std::vector<std::shared_ptr<const MatchOracle::Partition>>>
      parallel(kChunks);
  std::vector<std::vector<std::vector<std::uint64_t>>> flat(kChunks);
  std::vector<std::vector<std::shared_ptr<const MatchOracle::Partition>>>
      backstop(kChunks);
  ThreadPool pool{4};
  pool.parallel_for(kChunks, [&](std::size_t chunk, std::size_t) {
    for (std::uint64_t p = chunk * 20 + 1; p <= chunk * 20 + 60; ++p) {
      parallel[chunk].push_back(shared.partitioned_matches(PublicationId{p}));
      flat[chunk].push_back(shared.matches(PublicationId{p}));
    }
  });
  // Without release every one of the 2,600 publications would be held.
  EXPECT_LT(shared.memo_peak(), 2'600u);
  pool.parallel_for(kChunks, [&](std::size_t chunk, std::size_t) {
    for (std::uint64_t j = 0; j < 40; ++j) {
      const PublicationId pub{kBackstopBase + chunk * 40 + j};
      backstop[chunk].push_back(shared.partitioned_matches(pub));
    }
  });
  EXPECT_EQ(shared.memo_peak(), 4'096u);
  for (std::size_t chunk = 0; chunk < kChunks; ++chunk) {
    for (std::size_t j = 0; j < 60; ++j) {
      const PublicationId pub{chunk * 20 + 1 + j};
      EXPECT_EQ(*parallel[chunk][j], *serial.partitioned_matches(pub));
      EXPECT_EQ(flat[chunk][j], serial.matches(pub));
    }
    for (std::size_t j = 0; j < 40; ++j) {
      const PublicationId pub{kBackstopBase + chunk * 40 + j};
      EXPECT_EQ(*backstop[chunk][j], *serial.partitioned_matches(pub));
    }
  }
}

// The elastic Fig. 9 surge shape: 16 M slices read the same stream, the
// last one 3,000 publications behind the first. Every partition stays
// cached until its last slice has read it, so each publication is sampled
// exactly once.
TEST(MatchOracle, LaggingSlicesDrawOneSamplePerPublication) {
  const MatchOracle oracle{{.dimensions = 4, .total_subscriptions = 2'000,
                            .matching_rate = 0.01, .m_slices = 16,
                            .seed = 7}};
  constexpr std::uint64_t kPubs = 5'000;
  constexpr std::uint64_t kLagStep = 200;  // slice s trails slice 0 by s*200
  for (std::uint64_t lead = 1; lead <= kPubs + 15 * kLagStep; ++lead) {
    for (std::uint64_t s = 0; s < 16; ++s) {
      const std::uint64_t lag = s * kLagStep;
      if (lead > lag && lead - lag <= kPubs) {
        (void)oracle.partitioned_matches(PublicationId{lead - lag});
      }
    }
  }
  EXPECT_EQ(oracle.samples_drawn(), kPubs);
  EXPECT_EQ(oracle.memo_peak(), 15 * kLagStep + 1);
}

TEST(MatchOracle, ReadAfterReleaseResamplesEqualPartition) {
  const MatchOracle oracle{{.dimensions = 4, .total_subscriptions = 5'000,
                            .matching_rate = 0.02, .m_slices = 4, .seed = 5}};
  const PublicationId pub{11};
  const auto first = oracle.partitioned_matches(pub);
  for (int read = 2; read <= 4; ++read) {
    EXPECT_EQ(oracle.partitioned_matches(pub), first);  // the cached entry
  }
  EXPECT_EQ(oracle.samples_drawn(), 1u);
  // The fourth read released the entry: the fifth samples afresh.
  const auto again = oracle.partitioned_matches(pub);
  EXPECT_EQ(oracle.samples_drawn(), 2u);
  EXPECT_NE(again, first);
  EXPECT_EQ(*again, *first);
}

// Publications read fewer than m_slices times are never released by reads;
// the backstop keeps the memo at 4,096 entries by evicting the lowest id.
TEST(MatchOracle, MemoBackstopEvictsLowestPublication) {
  const MatchOracle oracle{{.dimensions = 4, .total_subscriptions = 2'000,
                            .matching_rate = 0.01, .m_slices = 16,
                            .seed = 7}};
  for (std::uint64_t p = 1; p <= 5'000; ++p) {
    (void)oracle.partitioned_matches(PublicationId{p});
  }
  EXPECT_EQ(oracle.memo_peak(), 4'096u);
  EXPECT_EQ(oracle.samples_drawn(), 5'000u);
  (void)oracle.partitioned_matches(PublicationId{5'000});  // still cached
  EXPECT_EQ(oracle.samples_drawn(), 5'000u);
  (void)oracle.partitioned_matches(PublicationId{1});  // evicted
  EXPECT_EQ(oracle.samples_drawn(), 5'001u);
  EXPECT_EQ(oracle.memo_peak(), 4'096u);
}

// ---- slice store ---------------------------------------------------------------

// First ids (ascending from 1) whose home slot in a table of `capacity`
// slots is `slot`.
std::vector<SubscriptionId> ids_homed_at(std::size_t slot, std::size_t capacity,
                                         std::size_t count) {
  std::vector<SubscriptionId> ids;
  for (std::uint64_t v = 1; ids.size() < count; ++v) {
    const SubscriptionId id{v};
    if ((std::hash<SubscriptionId>{}(id) & (capacity - 1)) == slot) {
      ids.push_back(id);
    }
  }
  return ids;
}

TEST(OracleSliceStore, EraseShiftsProbeRunBackAcrossSlotZero) {
  SliceStore store;
  store.insert_or_assign(SubscriptionId{1'000'000}, SubscriberId{0});
  const std::size_t cap = store.capacity();
  ASSERT_TRUE(store.erase(SubscriptionId{1'000'000}));
  const auto last = ids_homed_at(cap - 1, cap, 2);
  const auto first = ids_homed_at(0, cap, 1);
  const auto second = ids_homed_at(2, cap, 1);
  // Slots: cap-1 = last[0], 0 = last[1] (wrapped), 1 = first[0] (displaced
  // from its home 0), 2 = second[0] (at home).
  store.insert_or_assign(last[0], SubscriberId{10});
  store.insert_or_assign(last[1], SubscriberId{11});
  store.insert_or_assign(first[0], SubscriberId{12});
  store.insert_or_assign(second[0], SubscriberId{13});
  ASSERT_EQ(store.capacity(), cap);
  // Erasing the run's head must pull last[1] back across slot 0 into
  // slot cap-1 and first[0] into slot 0, and leave second[0] alone.
  EXPECT_TRUE(store.erase(last[0]));
  EXPECT_EQ(store.find(last[0]), nullptr);
  ASSERT_NE(store.find(last[1]), nullptr);
  EXPECT_EQ(*store.find(last[1]), SubscriberId{11});
  ASSERT_NE(store.find(first[0]), nullptr);
  EXPECT_EQ(*store.find(first[0]), SubscriberId{12});
  ASSERT_NE(store.find(second[0]), nullptr);
  EXPECT_EQ(*store.find(second[0]), SubscriberId{13});
  EXPECT_EQ(store.size(), 3u);
}

TEST(OracleSliceStore, ReAddGrowthAndUnknownRemove) {
  SliceStore store;
  EXPECT_FALSE(store.erase(SubscriptionId{5}));  // empty table
  std::map<SubscriptionId, SubscriberId> reference;
  Rng rng{17};
  // 20 K random operations over 4 K ids: the table doubles from 16 to 8 K
  // slots while entries come and go.
  for (int op = 0; op < 20'000; ++op) {
    const SubscriptionId id{rng.next_below(4'000) * 7 + 1};
    if (rng.next_double() < 0.7) {
      const SubscriberId s{rng.next_u64() % 1'000};
      store.insert_or_assign(id, s);
      reference[id] = s;
    } else {
      EXPECT_EQ(store.erase(id), reference.erase(id) > 0);
    }
    ASSERT_EQ(store.size(), reference.size());
  }
  EXPECT_GE(store.capacity(), 2 * store.size());
  EXPECT_EQ(std::popcount(store.capacity()), 1);
  for (std::uint64_t v = 0; v < 4'000 * 7 + 7; ++v) {
    const SubscriptionId id{v};
    const auto it = reference.find(id);
    const SubscriberId* found = store.find(id);
    if (it == reference.end()) {
      EXPECT_EQ(found, nullptr);
      EXPECT_FALSE(store.erase(id));  // unknown id
    } else {
      ASSERT_NE(found, nullptr);
      EXPECT_EQ(*found, it->second);
    }
  }
  const auto sorted = store.sorted_entries();
  EXPECT_EQ(sorted, (std::vector<SliceStore::Entry>(reference.begin(),
                                                    reference.end())));
  // Erase everything, then re-add: a cleared run must not hide entries.
  for (const auto& [id, s] : reference) EXPECT_TRUE(store.erase(id));
  EXPECT_EQ(store.size(), 0u);
  for (const auto& [id, s] : reference) store.insert_or_assign(id, s);
  EXPECT_EQ(store.sorted_entries(), sorted);
  EXPECT_THROW(store.insert_or_assign(SubscriptionId{}, SubscriberId{1}),
               std::invalid_argument);
}

TEST(OracleWorkload, MockCiphertextsHaveRealSizes) {
  OracleWorkload workload{{.dimensions = 4, .total_subscriptions = 100,
                           .matching_rate = 0.1, .m_slices = 2, .seed = 3}};
  const auto sub = workload.subscription(0);
  EXPECT_EQ(sub.comparisons.size(), 8u);
  EXPECT_EQ(sub.comparisons[0].share_a.size(), 7u);
  auto pub = workload.next_publication();
  EXPECT_EQ(pub.share_a.size(), 7u);
  EXPECT_EQ(pub.id, PublicationId{1});
}

// ---- schedules -----------------------------------------------------------------

TEST(Schedules, ConstantRate) {
  ConstantRate schedule{100.0, seconds(60)};
  EXPECT_DOUBLE_EQ(schedule.rate(seconds(10)), 100.0);
  EXPECT_EQ(schedule.duration(), seconds(60));
  EXPECT_DOUBLE_EQ(schedule.peak_rate(), 100.0);
}

TEST(Schedules, TrapezoidShape) {
  TrapezoidRate schedule{350.0, seconds(100), seconds(50), seconds(100)};
  EXPECT_DOUBLE_EQ(schedule.rate(seconds(0)), 0.0);
  EXPECT_NEAR(schedule.rate(seconds(50)), 175.0, 1e-9);
  EXPECT_DOUBLE_EQ(schedule.rate(seconds(100)), 350.0);
  EXPECT_DOUBLE_EQ(schedule.rate(seconds(125)), 350.0);
  EXPECT_NEAR(schedule.rate(seconds(200)), 175.0, 1e-9);
  EXPECT_DOUBLE_EQ(schedule.rate(seconds(260)), 0.0);
  EXPECT_EQ(schedule.duration(), seconds(250));
}

TEST(FrankfurtCurve, ReproducesFigure1Features) {
  // Quiet before the market opens.
  EXPECT_LT(FrankfurtTrace::base_curve(6.0), 1.0);
  // Sharp surge at the 9:00 open.
  EXPECT_GT(FrankfurtTrace::base_curve(9.0),
            5.0 * FrankfurtTrace::base_curve(8.5));
  // Afternoon spike above the midday level.
  EXPECT_GT(FrankfurtTrace::base_curve(15.5),
            1.5 * FrankfurtTrace::base_curve(13.0));
  // Sharp decline after the 17:30 close.
  EXPECT_LT(FrankfurtTrace::base_curve(18.0),
            0.3 * FrankfurtTrace::base_curve(17.0));
  // Quiet evening.
  EXPECT_LT(FrankfurtTrace::base_curve(21.0), 1.0);
  EXPECT_DOUBLE_EQ(FrankfurtTrace::base_peak(), 1200.0);
}

TEST(FrankfurtTrace, CompressionAndScaling) {
  FrankfurtTrace::Config config;
  config.start_hour = 7.0;
  config.end_hour = 20.5;
  config.speedup = 20.0;
  config.peak_rate = 190.0;
  config.noise = 0.0;
  FrankfurtTrace trace{config};
  // 13.5 hours at 20x -> 2430 s experiment.
  EXPECT_EQ(trace.duration(), seconds(2430));
  // Peak of the compressed trace ~ peak_rate (9:00 is at (9-7)*3600/20 s).
  const SimTime open{static_cast<std::int64_t>(2.0 * 3600.0 / 20.0 * 1e6)};
  EXPECT_NEAR(trace.rate(open), 190.0 * 1150.0 / 1200.0, 5.0);
  EXPECT_DOUBLE_EQ(trace.rate(seconds(0)), 0.0);
}

TEST(FrankfurtTrace, NoiseIsDeterministicAndBounded) {
  FrankfurtTrace::Config config;
  config.noise = 0.15;
  FrankfurtTrace a{config}, b{config};
  for (int s = 0; s < 2000; s += 100) {
    EXPECT_DOUBLE_EQ(a.rate(seconds(s)), b.rate(seconds(s)));
    EXPECT_GE(a.rate(seconds(s)), 0.0);
  }
}

// ---- driver --------------------------------------------------------------------

TEST(PublicationDriver, GeneratesApproximatelyTheScheduledVolume) {
  sim::Simulator sim;
  auto schedule = std::make_shared<ConstantRate>(200.0, seconds(60));
  std::uint64_t count = 0;
  PublicationDriver driver{sim, schedule, [&] { ++count; }, 5};
  driver.start();
  sim.run();
  // 200/s for 60 s = 12000 expected (Poisson, ~1 % tolerance at 3 sigma).
  EXPECT_NEAR(static_cast<double>(count), 12'000.0, 400.0);
  EXPECT_EQ(driver.published(), count);
  EXPECT_FALSE(driver.running());
}

TEST(PublicationDriver, TracksTimeVaryingRate) {
  sim::Simulator sim;
  auto schedule =
      std::make_shared<TrapezoidRate>(100.0, seconds(30), seconds(0),
                                      seconds(30));
  std::uint64_t first_half = 0, second_half = 0;
  PublicationDriver driver{
      sim, schedule,
      [&] { (sim.now() < seconds(30) ? first_half : second_half)++; }, 6};
  driver.start();
  sim.run();
  // Symmetric triangle: halves roughly equal, total ~ 3000.
  EXPECT_NEAR(static_cast<double>(first_half + second_half), 3000.0, 300.0);
  EXPECT_NEAR(static_cast<double>(first_half),
              static_cast<double>(second_half),
              0.25 * static_cast<double>(first_half));
}

TEST(PublicationDriver, StopHalts) {
  sim::Simulator sim;
  auto schedule = std::make_shared<ConstantRate>(1000.0, seconds(100));
  std::uint64_t count = 0;
  PublicationDriver driver{sim, schedule, [&] { ++count; }, 8};
  driver.start();
  sim.run_until(seconds(1));
  driver.stop();
  const auto at_stop = count;
  sim.run_until(seconds(5));
  EXPECT_EQ(count, at_stop);
}

TEST(PublicationDriver, OnDoneFires) {
  sim::Simulator sim;
  auto schedule = std::make_shared<ConstantRate>(10.0, seconds(5));
  bool done = false;
  PublicationDriver driver{sim, schedule, [] {}, 9, [&] { done = true; }};
  driver.start();
  sim.run();
  EXPECT_TRUE(done);
}

}  // namespace
}  // namespace esh::workload
