// Oracle-backed workload for cluster-scale experiments.
//
// Really evaluating encrypted filtering at the paper's scale (up to 42
// million ASPE operations per second, sustained for simulated hours) would
// require the authors' 240-core testbed; a single simulation core cannot
// execute that many real dot products in tolerable wall-clock time. The
// macro experiments therefore substitute a *match oracle*: the generator
// samples each publication's ground-truth match set directly (Binomial
// thinning at the configured matching rate, deterministic per publication
// id), while the M slices charge the full ASPE cost model and carry
// encrypted-sized state. Statistically the engine sees exactly the load the
// paper describes - per-pair O(d^2) CPU cost, 1 % matching rate, encrypted
// payload and state sizes - without executing the arithmetic.
//
// The real ASPE implementation (filter/aspe.*) remains fully functional and
// is exercised by unit tests, the small-scale end-to-end test, and the
// micro benchmarks; DESIGN.md documents this substitution.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "cluster/cost_model.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "filter/matcher.hpp"
#include "workload/slice_store.hpp"

namespace esh::workload {

struct OracleParams {
  std::size_t dimensions = 4;
  std::size_t total_subscriptions = 100'000;
  double matching_rate = 0.01;
  // Number of M slices: must match the StreamHub deployment (the oracle
  // partitions match sets the way AP partitions subscriptions).
  std::size_t m_slices = 16;
  std::uint64_t seed = 42;
  // Key skew: this fraction of the subscriptions gets ids congruent to
  // 0 mod m_slices, so they all land in bucket 0 and that M slice becomes
  // a hotspot no whole-slice migration can dilute. 0 keeps the historical
  // uniform ids (index + 1).
  double hot_fraction = 0.0;
  // Popularity skew (social-feed shape): with exponent s > 0, a
  // publication's ground-truth match set is sampled with P(index i)
  // proportional to 1 / (i + 1)^s instead of uniformly -- low indices are
  // the celebrities that match almost every publication, the long tail
  // almost never does. The match-count distribution (and with it every
  // pinned throughput/notification expectation) is unchanged; only which
  // indices match skews. 0 keeps the historical uniform sampling.
  double zipf_exponent = 0.0;
  // Target steady-state size of the churning fringe driven by ChurnStream,
  // as a fraction of total_subscriptions. The fringe lives at indices >=
  // total_subscriptions (fresh, unique ids; see ChurnStream), so the base
  // population and the oracle's match sampling are unaffected. 0 disables.
  //
  // All call sites use designated initializers (the old positional-
  // initializer trap on hot_fraction is retired), so appending knobs here
  // is safe.
  double churn_fraction = 0.0;
};

// Deterministic ground-truth sampler shared by every OracleMatcher.
class MatchOracle {
 public:
  explicit MatchOracle(OracleParams params);

  // Id scheme: uniform ids are index+1; under hot_fraction the first
  // hot_count indices get multiples of m_slices (bucket 0) and the rest
  // walk the non-multiples in order. Both ranges are injective and
  // disjoint, so ids stay unique and AP's modulo routing sees the skew.
  [[nodiscard]] SubscriptionId sub_id(std::uint64_t index) const {
    const std::uint64_t hot = hot_count();
    if (hot == 0) return SubscriptionId{index + 1};
    const auto m = static_cast<std::uint64_t>(params_.m_slices);
    if (index < hot) return SubscriptionId{(index + 1) * m};
    const std::uint64_t j = index - hot;  // j-th id not divisible by m
    return SubscriptionId{(j / (m - 1)) * m + (j % (m - 1)) + 1};
  }
  [[nodiscard]] std::uint64_t hot_count() const {
    if (params_.hot_fraction <= 0.0 || params_.m_slices < 2) return 0;
    return static_cast<std::uint64_t>(
        params_.hot_fraction *
        static_cast<double>(params_.total_subscriptions));
  }
  [[nodiscard]] SubscriberId subscriber_of(std::uint64_t index) const {
    return SubscriberId{index};
  }
  // M slice that stores subscription `index` (AP's modulo-hash rule).
  [[nodiscard]] std::size_t slice_of(std::uint64_t index) const {
    return sub_id(index).value() % params_.m_slices;
  }

  // Match set of one publication, partitioned by M slice, each slice's
  // indices ascending; memoized so the m_slices queries for the same
  // publication sample only once. Safe to call from several threads.
  using Partition = std::vector<std::vector<std::uint64_t>>;
  [[nodiscard]] std::shared_ptr<const Partition> partitioned_matches(
      PublicationId pub) const;

  // Flat ground-truth match set (sampled subscription indices, ascending).
  [[nodiscard]] std::vector<std::uint64_t> matches(PublicationId pub) const;

  [[nodiscard]] const OracleParams& params() const { return params_; }

  // Match sets sampled so far, by matches() and by memo misses of
  // partitioned_matches().
  [[nodiscard]] std::uint64_t samples_drawn() const {
    return samples_drawn_.load(std::memory_order_relaxed);
  }
  // Most partitions the memo has held at once.
  [[nodiscard]] std::size_t memo_peak() const {
    const std::lock_guard lock{cache_mutex_};
    return cache_peak_;
  }

 private:
  // Samples the match set of `pub` and calls emit(index) for each sampled
  // index in ascending order.
  template <typename Emit>
  void sample(PublicationId pub, Emit&& emit) const;

  OracleParams params_;
  // Cumulative Zipf weights over [0, total_subscriptions); empty when
  // zipf_exponent == 0 (uniform sampling, the historical path).
  std::vector<double> zipf_cum_;
  // Memo of partitioned_matches, released on last read: each entry counts
  // its reads and is dropped on the m_slices-th, once every deploy-time
  // slice has read it. A backstop bound evicts the lowest publication id,
  // so reads that never reach m_slices (replays, merged fans, slices that
  // stop reading) cannot grow it without bound. A read after release
  // re-samples the same deterministic partition. Sampling runs outside the
  // lock; when two threads sample the same publication, the first insert
  // wins (both results are equal) and both reads count.
  struct MemoEntry {
    std::shared_ptr<const Partition> partition;
    std::size_t reads = 0;
  };
  // Counts one read of `it` and releases it on the last; returns the
  // partition. Caller holds cache_mutex_.
  std::shared_ptr<const Partition> read_memo(
      std::map<PublicationId, MemoEntry>::iterator it) const;

  mutable std::mutex cache_mutex_;
  mutable std::map<PublicationId, MemoEntry> cache_;
  mutable std::size_t cache_peak_ = 0;
  mutable std::atomic<std::uint64_t> samples_drawn_{0};
};

// Deterministic subscribe/unsubscribe stream over the churning fringe
// (social-feed shape: the stable base population keeps matching, while a
// fringe of size ~ churn_fraction * total_subscriptions subscribes and
// unsubscribes throughout the run). Fringe subscriptions live at indices >=
// total_subscriptions: sub_id() is injective over ALL indices (hot and
// uniform ranges alike), so every churned-in subscription carries a fresh,
// never-reused id and AP's modulo routing spreads the fringe like any
// other traffic. The oracle's match sampling draws from the base
// population only, so the fringe is cold -- it consumes subscribe/
// unsubscribe bandwidth and M-slice state without inflating notifications.
class ChurnStream {
 public:
  struct Event {
    bool subscribe;       // false = unsubscribe
    std::uint64_t index;  // workload subscription index (>= base population)
  };

  ChurnStream(std::shared_ptr<const MatchOracle> oracle, std::uint64_t seed);

  // Next deterministic churn event. Below the target fringe size the
  // stream is subscribe-biased (the fringe fills), at or above it the bias
  // flips (steady state); unsubscribes always target a currently live
  // fringe index, chosen uniformly.
  [[nodiscard]] Event next();

  [[nodiscard]] std::size_t live_fringe() const { return live_.size(); }
  [[nodiscard]] std::uint64_t spawned() const { return next_fresh_; }
  [[nodiscard]] std::uint64_t target_fringe() const;

 private:
  std::shared_ptr<const MatchOracle> oracle_;
  Rng rng_;
  std::vector<std::uint64_t> live_;  // churned-in fringe, insertion order
  std::uint64_t next_fresh_ = 0;
};

// Matcher backed by the oracle: stores (id -> subscriber) of its partition,
// reports encrypted-equivalent state size and ASPE-model match cost, and
// returns the oracle's ground truth restricted to the stored entries.
// Key-level split aware: a deploy-time slice (index < m_slices) only ever
// stores subscriptions of its own oracle bucket, while a split child
// (index >= m_slices) inherits its bucket from the parent lineage and
// scans every bucket to stay truthful.
class OracleMatcher final : public filter::Matcher {
 public:
  OracleMatcher(std::shared_ptr<const MatchOracle> oracle,
                cluster::CostModel cost, std::size_t slice_index);

  void add(const filter::AnySubscription& sub) override;
  bool remove(SubscriptionId id) override;
  [[nodiscard]] filter::MatchOutcome match(
      const filter::AnyPublication& pub) override;
  [[nodiscard]] double estimate_match_units() const override;
  [[nodiscard]] std::size_t subscription_count() const override;
  [[nodiscard]] std::size_t state_bytes() const override;
  void serialize_state(BinaryWriter& w) const override;
  void restore_state(BinaryReader& r) override;
  std::size_t split_state(const KeyCoverage& cov, BinaryWriter& w) override;
  void absorb_state(BinaryReader& r) override;
  [[nodiscard]] std::unique_ptr<filter::Matcher> clone_empty() const override;
  [[nodiscard]] std::string scheme_name() const override {
    return "aspe-oracle";
  }

 private:
  std::shared_ptr<const MatchOracle> oracle_;
  cluster::CostModel cost_;
  std::size_t slice_index_;
  SliceStore subs_;
};

// Generates mock-encrypted events: payloads have exactly the sizes of real
// ASPE ciphertexts (shares of the right dimensions) with junk contents, so
// network and state accounting match the encrypted deployment.
class OracleWorkload {
 public:
  explicit OracleWorkload(OracleParams params);

  [[nodiscard]] filter::EncryptedSubscription subscription(
      std::uint64_t index) const;
  [[nodiscard]] filter::EncryptedPublication next_publication();

  [[nodiscard]] std::shared_ptr<const MatchOracle> oracle() const {
    return oracle_;
  }
  // Factory for StreamHubParams::matcher_factory.
  [[nodiscard]] std::unique_ptr<filter::Matcher> make_matcher(
      cluster::CostModel cost, std::size_t slice_index) const;

  [[nodiscard]] const OracleParams& params() const { return params_; }
  // Expected notifications per publication.
  [[nodiscard]] double expected_matches() const {
    return static_cast<double>(params_.total_subscriptions) *
           params_.matching_rate;
  }

 private:
  OracleParams params_;
  std::shared_ptr<const MatchOracle> oracle_;
  std::uint64_t next_pub_ = 1;
};

}  // namespace esh::workload
