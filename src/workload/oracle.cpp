#include "workload/oracle.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

namespace esh::workload {

namespace {
// Backstop of the release-on-last-read memo. The elastic Fig. 9 surge
// leaves its lagging M slices up to ~3,500 publications behind the leading
// one; every partition they still have to read must stay cached.
constexpr std::size_t kOracleMemoBound = 4096;
// Sampler scratch, one per thread: the oracle is shared across pool threads.
thread_local std::vector<std::uint64_t> sample_bits;
}  // namespace

MatchOracle::MatchOracle(OracleParams params) : params_(params) {
  if (params_.total_subscriptions == 0 || params_.m_slices == 0) {
    throw std::invalid_argument{"MatchOracle: need subscriptions and slices"};
  }
  if (params_.matching_rate < 0.0 || params_.matching_rate > 1.0) {
    throw std::invalid_argument{"MatchOracle: matching rate in [0, 1]"};
  }
  if (params_.hot_fraction < 0.0 || params_.hot_fraction > 1.0) {
    throw std::invalid_argument{"MatchOracle: hot fraction in [0, 1]"};
  }
  if (params_.zipf_exponent < 0.0 || params_.zipf_exponent > 4.0) {
    throw std::invalid_argument{"MatchOracle: zipf exponent in [0, 4]"};
  }
  if (params_.churn_fraction < 0.0 || params_.churn_fraction > 1.0) {
    throw std::invalid_argument{"MatchOracle: churn fraction in [0, 1]"};
  }
  if (params_.zipf_exponent > 0.0) {
    zipf_cum_.reserve(params_.total_subscriptions);
    double cum = 0.0;
    for (std::uint64_t i = 0; i < params_.total_subscriptions; ++i) {
      cum += std::pow(static_cast<double>(i + 1), -params_.zipf_exponent);
      zipf_cum_.push_back(cum);
    }
  }
}

template <typename Emit>
void MatchOracle::sample(PublicationId pub, Emit&& emit) const {
  samples_drawn_.fetch_add(1, std::memory_order_relaxed);
  Rng rng{params_.seed ^ (pub.value() * 0x9e3779b97f4a7c15ULL + 11)};
  const std::uint64_t n = params_.total_subscriptions;
  const double expected = static_cast<double>(n) * params_.matching_rate;
  // k ~ Binomial(n, p), approximated by a clamped normal (n*p >> 1 for the
  // workloads of interest).
  const double stddev = std::sqrt(expected * (1.0 - params_.matching_rate));
  double k_real = rng.normal(expected, stddev);
  k_real = std::clamp(k_real, 0.0, static_cast<double>(n));
  const auto k = static_cast<std::size_t>(std::lround(k_real));

  // Without-replacement sampling by rejection: a bitmap over [0, n) marks
  // the indices drawn so far. Reading the set bits back in word order
  // yields the sample already sorted.
  std::vector<std::uint64_t>& bits = sample_bits;
  bits.assign((n + 63) / 64, 0);
  // Rng::next_below's rejection threshold, hoisted out of the draw loop;
  // the draws are the ones next_below(n) would make.
  const std::uint64_t threshold = -n % n;
  for (std::size_t chosen = 0; chosen < k;) {
    // Uniform popularity, or Zipf-weighted inversion sampling: the match
    // count stays Binomial(n, p) either way, only which indices carry the
    // matches skews.
    std::uint64_t idx;
    if (zipf_cum_.empty()) {
      std::uint64_t r;
      do {
        r = rng.next_u64();
      } while (r < threshold);
      idx = r % n;
    } else {
      const double r = rng.next_double() * zipf_cum_.back();
      idx = static_cast<std::uint64_t>(std::distance(
          zipf_cum_.begin(),
          std::lower_bound(zipf_cum_.begin(), zipf_cum_.end(), r)));
      if (idx >= n) idx = n - 1;  // floating-point edge of the last bucket
    }
    std::uint64_t& word = bits[idx / 64];
    const std::uint64_t bit = std::uint64_t{1} << (idx % 64);
    if ((word & bit) == 0) {
      word |= bit;
      ++chosen;
    }
  }
  for (std::size_t w = 0; w < bits.size(); ++w) {
    for (std::uint64_t word = bits[w]; word != 0; word &= word - 1) {
      emit(w * 64 + static_cast<std::uint64_t>(std::countr_zero(word)));
    }
  }
}

std::vector<std::uint64_t> MatchOracle::matches(PublicationId pub) const {
  std::vector<std::uint64_t> chosen;
  sample(pub, [&](std::uint64_t index) { chosen.push_back(index); });
  return chosen;
}

// ---- ChurnStream -------------------------------------------------------------

ChurnStream::ChurnStream(std::shared_ptr<const MatchOracle> oracle,
                         std::uint64_t seed)
    : oracle_(std::move(oracle)),
      rng_(seed * 0xd1342543de82ef95ULL + 19) {
  if (oracle_ == nullptr) {
    throw std::invalid_argument{"ChurnStream: oracle required"};
  }
}

std::uint64_t ChurnStream::target_fringe() const {
  const auto& p = oracle_->params();
  return static_cast<std::uint64_t>(
      p.churn_fraction * static_cast<double>(p.total_subscriptions));
}

ChurnStream::Event ChurnStream::next() {
  // Subscribe-biased while filling toward the target fringe, unsubscribe-
  // biased above it: the fringe size random-walks around the target.
  const bool below = live_.size() < target_fringe();
  const double subscribe_p = below ? 0.7 : 0.3;
  if (live_.empty() || rng_.next_double() < subscribe_p) {
    const std::uint64_t index =
        oracle_->params().total_subscriptions + next_fresh_++;
    live_.push_back(index);
    return Event{true, index};
  }
  const std::size_t pos = rng_.next_below(live_.size());
  const std::uint64_t index = live_[pos];
  live_.erase(live_.begin() + static_cast<std::ptrdiff_t>(pos));
  return Event{false, index};
}

std::shared_ptr<const MatchOracle::Partition> MatchOracle::read_memo(
    std::map<PublicationId, MemoEntry>::iterator it) const {
  std::shared_ptr<const Partition> partition = it->second.partition;
  if (++it->second.reads >= params_.m_slices) cache_.erase(it);
  return partition;
}

std::shared_ptr<const MatchOracle::Partition> MatchOracle::partitioned_matches(
    PublicationId pub) const {
  {
    const std::lock_guard lock{cache_mutex_};
    if (auto it = cache_.find(pub); it != cache_.end()) return read_memo(it);
  }
  const std::size_t m = params_.m_slices;
  auto partition = std::make_shared<Partition>(m);
  // Reserve ~1.5x each slice's expected share of the expected match count.
  const auto per_slice = static_cast<std::size_t>(
      1.5 * static_cast<double>(params_.total_subscriptions) *
      params_.matching_rate / static_cast<double>(m));
  for (auto& slice : *partition) slice.reserve(per_slice);
  sample(pub, [&](std::uint64_t index) {
    (*partition)[slice_of(index)].push_back(index);
  });

  const std::lock_guard lock{cache_mutex_};
  auto it = cache_.find(pub);
  if (it == cache_.end()) {
    if (cache_.size() >= kOracleMemoBound) cache_.erase(cache_.begin());
    it = cache_.emplace(pub, MemoEntry{std::move(partition)}).first;
    cache_peak_ = std::max(cache_peak_, cache_.size());
  }
  return read_memo(it);
}

OracleMatcher::OracleMatcher(std::shared_ptr<const MatchOracle> oracle,
                             cluster::CostModel cost, std::size_t slice_index)
    : oracle_(std::move(oracle)), cost_(cost), slice_index_(slice_index) {
  // Indices >= m_slices are legitimate: key-level splits create child
  // slices beyond the deploy-time count.
}

void OracleMatcher::add(const filter::AnySubscription& sub) {
  const auto& enc = std::get<filter::EncryptedSubscription>(sub);
  subs_.insert_or_assign(enc.id, enc.subscriber);
}

bool OracleMatcher::remove(SubscriptionId id) { return subs_.erase(id); }

filter::MatchOutcome OracleMatcher::match(const filter::AnyPublication& pub) {
  filter::MatchOutcome out;
  const auto pub_id = filter::publication_id(pub);
  const auto partition = oracle_->partitioned_matches(pub_id);
  // Only subscriptions actually stored here may match: under partial
  // storage, mid-migration or mid-split the matcher stays truthful.
  const auto scan = [&](const std::vector<std::uint64_t>& indices) {
    for (std::uint64_t index : indices) {
      if (const SubscriberId* s = subs_.find(oracle_->sub_id(index))) {
        out.subscribers.push_back(*s);
      }
    }
  };
  if (slice_index_ < oracle_->params().m_slices) {
    // A deploy-time slice's store never leaves its own bucket: splits and
    // merges only shuffle state within one bucket lineage.
    const auto& own = (*partition)[slice_index_];
    out.subscribers.reserve(own.size());
    scan(own);
  } else {
    // Split child: its bucket comes from the parent lineage, which the
    // matcher does not know. Scan every bucket; subs_ filters the rest.
    for (const auto& indices : *partition) scan(indices);
  }
  out.work_units = estimate_match_units();
  return out;
}

double OracleMatcher::estimate_match_units() const {
  return cost_.aspe_match_units(oracle_->params().dimensions) *
         static_cast<double>(subs_.size());
}

std::size_t OracleMatcher::subscription_count() const { return subs_.size(); }

std::size_t OracleMatcher::state_bytes() const {
  return subs_.size() *
         cost_.subscription_bytes(oracle_->params().dimensions);
}

namespace {

// One record per entry, padded to the encrypted subscription's size:
// migrations transfer the real ciphertexts in the paper's system.
void write_records(BinaryWriter& w,
                   const std::vector<SliceStore::Entry>& entries,
                   std::size_t record) {
  const std::size_t payload = 16;  // id + subscriber
  const std::string padding(record > payload ? record - payload : 0, '\0');
  w.write_u64(entries.size());
  w.write_u64(record);
  for (const auto& [id, subscriber] : entries) {
    w.write_id(id);
    w.write_id(subscriber);
    w.write_string(padding);
  }
}

void read_records(BinaryReader& r, SliceStore& subs) {
  const auto n = r.read_u64();
  (void)r.read_u64();  // record size
  for (std::uint64_t i = 0; i < n; ++i) {
    const auto id = r.read_id<SubscriptionTag>();
    const auto subscriber = r.read_id<SubscriberTag>();
    (void)r.read_string();  // padding
    subs.insert_or_assign(id, subscriber);
  }
}

}  // namespace

void OracleMatcher::serialize_state(BinaryWriter& w) const {
  write_records(w, subs_.sorted_entries(),
                cost_.subscription_bytes(oracle_->params().dimensions));
}

std::size_t OracleMatcher::split_state(const KeyCoverage& cov,
                                       BinaryWriter& w) {
  std::vector<SliceStore::Entry> moving = subs_.sorted_entries();
  std::erase_if(moving, [&](const SliceStore::Entry& e) {
    return !cov.covers(e.first.value());
  });
  write_records(w, moving,
                cost_.subscription_bytes(oracle_->params().dimensions));
  const std::size_t serialized = moving.size();
  if (testing_keep_one_on_split && !moving.empty()) moving.pop_back();
  for (const auto& entry : moving) subs_.erase(entry.first);
  return serialized;
}

void OracleMatcher::absorb_state(BinaryReader& r) { read_records(r, subs_); }

void OracleMatcher::restore_state(BinaryReader& r) {
  subs_.clear();
  read_records(r, subs_);
}

std::unique_ptr<filter::Matcher> OracleMatcher::clone_empty() const {
  auto clone = std::make_unique<OracleMatcher>(oracle_, cost_, slice_index_);
  clone->set_thread_pool(thread_pool());
  return clone;
}

OracleWorkload::OracleWorkload(OracleParams params)
    : params_(params), oracle_(std::make_shared<MatchOracle>(params)) {}

filter::EncryptedSubscription OracleWorkload::subscription(
    std::uint64_t index) const {
  Rng rng{params_.seed ^ (index * 0xbf58476d1ce4e5b9ULL + 13)};
  const std::size_t m = params_.dimensions + 3;
  filter::EncryptedSubscription sub;
  sub.id = oracle_->sub_id(index);
  sub.subscriber = oracle_->subscriber_of(index);
  sub.comparisons.resize(2 * params_.dimensions);
  for (auto& cmp : sub.comparisons) {
    cmp.share_a.resize(m);
    cmp.share_b.resize(m);
    for (double& v : cmp.share_a) v = rng.uniform(-1.0, 1.0);
    for (double& v : cmp.share_b) v = rng.uniform(-1.0, 1.0);
  }
  return sub;
}

filter::EncryptedPublication OracleWorkload::next_publication() {
  Rng rng{params_.seed ^ (next_pub_ * 0x94d049bb133111ebULL + 17)};
  const std::size_t m = params_.dimensions + 3;
  filter::EncryptedPublication pub;
  pub.id = PublicationId{next_pub_++};
  pub.share_a.resize(m);
  pub.share_b.resize(m);
  for (double& v : pub.share_a) v = rng.uniform(-1.0, 1.0);
  for (double& v : pub.share_b) v = rng.uniform(-1.0, 1.0);
  return pub;
}

std::unique_ptr<filter::Matcher> OracleWorkload::make_matcher(
    cluster::CostModel cost, std::size_t slice_index) const {
  return std::make_unique<OracleMatcher>(oracle_, cost, slice_index);
}

}  // namespace esh::workload
