#include "elastic/enforcer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <unordered_map>

namespace esh::elastic {
namespace {

// First Fit's bin order: hosts in decreasing utilization (paper §V), ties
// broken by host id.
bool fuller(const HostView& a, const HostView& b) {
  if (a.cpu != b.cpu) return a.cpu > b.cpu;
  return a.host < b.host;
}

// Every host but `excluded`, as First Fit bins.
std::vector<HostView> bins_except(const SystemView& view, HostId excluded) {
  std::vector<HostView> bins;
  for (const HostView& other : view.hosts) {
    if (other.host != excluded) bins.push_back(other);
  }
  std::sort(bins.begin(), bins.end(), fuller);
  return bins;
}

}  // namespace

double SystemView::average_cpu() const {
  if (hosts.empty()) return 0.0;
  return total_cpu() / static_cast<double>(hosts.size());
}

double SystemView::total_cpu() const {
  double total = 0.0;
  for (const HostView& h : hosts) total += h.cpu;
  return total;
}

const char* to_string(MigrationPlan::Reason r) {
  switch (r) {
    case MigrationPlan::Reason::kNone:
      return "none";
    case MigrationPlan::Reason::kScaleOut:
      return "scale-out";
    case MigrationPlan::Reason::kScaleIn:
      return "scale-in";
    case MigrationPlan::Reason::kLocalHigh:
      return "local-high";
    case MigrationPlan::Reason::kLocalLow:
      return "local-low";
    case MigrationPlan::Reason::kHotspotSplit:
      return "hotspot-split";
    case MigrationPlan::Reason::kColdMerge:
      return "cold-merge";
  }
  return "?";
}

engine::MigrationStrategyKind select_strategy(const PolicyConfig& policy,
                                              std::size_t state_bytes,
                                              double cpu) {
  if (state_bytes <= policy.strategy_small_state_bytes) {
    return engine::MigrationStrategyKind::kStopAndRestart;
  }
  if (cpu >= policy.strategy_hot_cpu) {
    return engine::MigrationStrategyKind::kIncrementalPrecopy;
  }
  return engine::MigrationStrategyKind::kBufferedReplay;
}

std::vector<std::size_t> select_slices_min_state(
    const std::vector<SliceView>& slices, double required_cpu) {
  if (slices.empty() || required_cpu <= 0.0) return {};

  // Discretize CPU weights to permille for the DP (pseudo-polynomial
  // subset sum, paper [24]).
  std::vector<std::uint32_t> weight(slices.size());
  std::uint32_t total = 0;
  for (std::size_t i = 0; i < slices.size(); ++i) {
    weight[i] = static_cast<std::uint32_t>(
        std::lround(std::max(0.0, slices[i].cpu) * 1000.0));
    total += weight[i];
  }
  const auto required = static_cast<std::uint32_t>(
      std::lround(required_cpu * 1000.0));
  if (total <= required) {
    // Everything must move.
    std::vector<std::size_t> all(slices.size());
    for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
    return all;
  }

  // dp[s] = minimal summed state bytes over subsets with weight exactly s.
  // Each state carries the subset itself as a bitmask (few dozen slices per
  // host in practice), making reconstruction trivially correct.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::size_t words = (slices.size() + 63) / 64;
  std::vector<double> dp(total + 1, kInf);
  std::vector<std::uint64_t> mask((total + 1) * words, 0);
  dp[0] = 0.0;
  for (std::size_t i = 0; i < slices.size(); ++i) {
    const std::uint32_t w = weight[i];
    const auto bytes = static_cast<double>(slices[i].state_bytes);
    for (std::uint32_t s = total; s + 1 > w; --s) {
      const std::uint32_t from = s - w;
      if (dp[from] == kInf) continue;
      const double candidate = dp[from] + bytes;
      if (candidate < dp[s]) {
        dp[s] = candidate;
        for (std::size_t word = 0; word < words; ++word) {
          mask[s * words + word] = mask[from * words + word];
        }
        mask[s * words + i / 64] |= std::uint64_t{1} << (i % 64);
      }
    }
  }

  // Among all achievable sums >= required, pick minimal state transfer;
  // ties break toward the smaller sum (less load displaced).
  std::uint32_t best_sum = 0;
  double best_bytes = kInf;
  for (std::uint32_t s = required; s <= total; ++s) {
    if (dp[s] < best_bytes) {
      best_bytes = dp[s];
      best_sum = s;
    }
  }
  std::vector<std::size_t> chosen;
  for (std::size_t i = 0; i < slices.size(); ++i) {
    if ((mask[best_sum * words + i / 64] >> (i % 64)) & 1u) {
      chosen.push_back(i);
    }
  }
  return chosen;
}

std::vector<MigrationPlan::Move> first_fit_place(
    std::vector<SliceView> moving, std::vector<HostView> bins, double cap,
    std::size_t extra_bins) {
  // First Fit Decreasing: heaviest slices first (paper §V, [12]).
  std::sort(moving.begin(), moving.end(),
            [](const SliceView& a, const SliceView& b) {
              if (a.cpu != b.cpu) return a.cpu > b.cpu;
              return a.slice < b.slice;
            });
  std::vector<double> new_bin_load(extra_bins, 0.0);
  std::vector<MigrationPlan::Move> moves;
  moves.reserve(moving.size());
  for (const SliceView& slice : moving) {
    bool placed = false;
    for (HostView& bin : bins) {
      if (bin.cpu + slice.cpu <= cap) {
        bin.cpu += slice.cpu;
        moves.push_back(MigrationPlan::Move{slice.slice, bin.host, {}});
        placed = true;
        break;
      }
    }
    if (placed) continue;
    for (std::size_t i = 0; i < new_bin_load.size(); ++i) {
      if (new_bin_load[i] + slice.cpu <= cap) {
        new_bin_load[i] += slice.cpu;
        moves.push_back(MigrationPlan::Move{slice.slice, HostId{}, i});
        placed = true;
        break;
      }
    }
    if (!placed) {
      // Automatic allocation: open one more bin (paper: the enforcer
      // derives allocation decisions when spare capacity is insufficient).
      new_bin_load.push_back(slice.cpu);
      moves.push_back(
          MigrationPlan::Move{slice.slice, HostId{}, new_bin_load.size() - 1});
    }
  }
  return moves;
}

std::size_t new_hosts_of(const std::vector<MigrationPlan::Move>& moves) {
  std::size_t hosts = 0;
  for (const MigrationPlan::Move& mv : moves) {
    if (mv.new_host_index.has_value()) {
      hosts = std::max(hosts, *mv.new_host_index + 1);
    }
  }
  return hosts;
}

Enforcer::Enforcer(PolicyConfig config) : config_(config) {
  if (!(config_.global_low < config_.target &&
        config_.target <= config_.global_high)) {
    throw std::invalid_argument{"PolicyConfig: need low < target <= high"};
  }
}

MigrationPlan Enforcer::evaluate(const SystemView& view) {
  MigrationPlan plan;
  if (view.hosts.empty()) return plan;
  const double avg = view.average_cpu();
  // Load increases are addressed at a faster cadence than scale-in (which
  // waits out the full grace period for stability): both a violated global
  // high watermark and an individual overloaded host are urgent.
  bool host_overloaded = false;
  for (const HostView& host : view.hosts) {
    if (host.cpu > config_.local_high) host_overloaded = true;
  }
  bool slice_hot = false;
  if (config_.enable_splits) {
    for (const SliceView& s : view.slices) {
      if (s.splittable && s.cpu >= config_.split_share) slice_hot = true;
    }
  }
  const SimDuration required_gap =
      (avg > config_.global_high || host_overloaded || slice_hot)
          ? config_.scale_out_grace
          : config_.grace;
  if (acted_once_ && view.time - last_action_ < required_gap) return plan;

  // A single-slice hotspot is the one load pattern whole-slice migration
  // cannot dilute: moving the slice moves the hotspot. Splitting its key
  // coverage halves it, so the split rule outranks every placement rule.
  if (slice_hot) plan = hotspot_split(view);
  if (plan.empty()) {
    if (avg > config_.global_high) {
      plan = scale_out(view);
    } else if (avg < config_.global_low &&
               view.hosts.size() > config_.min_hosts) {
      plan = scale_in(view);
    } else {
      // Local rules apply only when no global rule is violated (paper §V).
      plan = local_rebalance(view);
    }
  }
  // Merging back is pure consolidation: considered only when everything
  // else is quiet, under the slow (scale-in) grace.
  if (plan.empty() && config_.enable_splits) plan = cold_merge(view);
  if (!plan.empty()) {
    last_action_ = view.time;
    acted_once_ = true;
  }
  return plan;
}

MigrationPlan Enforcer::scale_out(const SystemView& view) const {
  MigrationPlan plan;
  plan.reason = MigrationPlan::Reason::kScaleOut;

  // Step 0: how many hosts short are we for an average at `target`?
  const double total = view.total_cpu();
  const auto needed = static_cast<std::size_t>(
      std::ceil(total / config_.target));
  const std::size_t extra =
      needed > view.hosts.size() ? needed - view.hosts.size() : 1;

  // Step 1: per overloaded host, pick the slices to evict via subset sum,
  // minimizing state transfer (paper §V).
  std::unordered_map<HostId, std::vector<SliceView>> by_host;
  for (const SliceView& s : view.slices) by_host[s.host].push_back(s);

  std::vector<SliceView> moving;
  for (const HostView& host : view.hosts) {
    const double excess = host.cpu - config_.target;
    if (excess <= 0.0) continue;
    auto it = by_host.find(host.host);
    if (it == by_host.end()) continue;
    const auto chosen = select_slices_min_state(it->second, excess);
    for (std::size_t idx : chosen) moving.push_back(it->second[idx]);
  }
  if (moving.empty()) return MigrationPlan{};

  // Step 2: First Fit Decreasing over remaining capacity + new hosts.
  std::vector<HostView> bins;
  for (const HostView& host : view.hosts) {
    double load = host.cpu;
    // Remove the load of the slices that are leaving this host.
    for (const SliceView& s : moving) {
      if (s.host == host.host) load -= s.cpu;
    }
    bins.push_back(HostView{host.host, std::max(0.0, load)});
  }
  std::sort(bins.begin(), bins.end(), fuller);
  plan.moves = first_fit_place(std::move(moving), std::move(bins),
                               config_.placement_cap, extra);
  plan.new_hosts = new_hosts_of(plan.moves);
  if (plan.moves.empty()) return MigrationPlan{};
  return plan;
}

MigrationPlan Enforcer::scale_in(const SystemView& view) const {
  MigrationPlan plan;
  plan.reason = MigrationPlan::Reason::kScaleIn;

  const double total = view.total_cpu();
  auto target_hosts = static_cast<std::size_t>(
      std::ceil(std::max(1.0, total / config_.target)));
  target_hosts = std::max(target_hosts, config_.min_hosts);
  if (target_hosts >= view.hosts.size()) return MigrationPlan{};
  std::size_t to_release = view.hosts.size() - target_hosts;

  std::unordered_map<HostId, std::vector<SliceView>> by_host;
  for (const SliceView& s : view.slices) by_host[s.host].push_back(s);

  // Release the least-loaded hosts first, re-dispatching their slices onto
  // the remaining hosts (paper §V).
  std::vector<HostView> by_load = view.hosts;
  std::sort(by_load.begin(), by_load.end(),
            [](const HostView& a, const HostView& b) {
              if (a.cpu != b.cpu) return a.cpu < b.cpu;
              return a.host < b.host;
            });

  std::vector<HostView> bins(by_load.begin() + static_cast<std::ptrdiff_t>(
                                                   to_release),
                             by_load.end());
  // Bins in decreasing utilization for First Fit.
  std::sort(bins.begin(), bins.end(), fuller);

  for (std::size_t r = 0; r < to_release; ++r) {
    const HostId victim = by_load[r].host;
    std::vector<SliceView> moving = by_host[victim];
    auto moves = first_fit_place(std::move(moving), bins,
                                 config_.placement_cap, /*extra_bins=*/0);
    // Releasing must not allocate: if anything spilled to a new bin, this
    // host cannot be emptied; stop releasing further hosts.
    if (new_hosts_of(moves) > 0) break;
    // Commit: update bin loads and the plan.
    for (const auto& mv : moves) {
      for (HostView& bin : bins) {
        if (bin.host == mv.dst) {
          for (const SliceView& s : by_host[victim]) {
            if (s.slice == mv.slice) bin.cpu += s.cpu;
          }
        }
      }
    }
    plan.moves.insert(plan.moves.end(), moves.begin(), moves.end());
    plan.releases.push_back(victim);
  }
  if (plan.releases.empty()) return MigrationPlan{};
  return plan;
}

MigrationPlan Enforcer::hotspot_split(const SystemView& view) const {
  // Split the hottest qualifying slice; one split per plan, the grace
  // period paces successive refinements. The child goes to the least
  // loaded host so the freed half of the load lands on spare capacity.
  const SliceView* hottest = nullptr;
  for (const SliceView& s : view.slices) {
    if (!s.splittable || s.cpu < config_.split_share) continue;
    if (hottest == nullptr || s.cpu > hottest->cpu ||
        (s.cpu == hottest->cpu && s.slice < hottest->slice)) {
      hottest = &s;
    }
  }
  if (hottest == nullptr) return MigrationPlan{};
  const HostView* coldest = nullptr;
  for (const HostView& host : view.hosts) {
    if (coldest == nullptr || host.cpu < coldest->cpu ||
        (host.cpu == coldest->cpu && host.host < coldest->host)) {
      coldest = &host;
    }
  }
  MigrationPlan plan;
  plan.reason = MigrationPlan::Reason::kHotspotSplit;
  plan.splits.push_back(MigrationPlan::Split{hottest->slice, coldest->host});
  return plan;
}

MigrationPlan Enforcer::cold_merge(const SystemView& view) const {
  // Fold the coldest sibling pair back together. Requiring the combined
  // load to stay clear of split_share (hysteresis) prevents a merge from
  // immediately re-arming the split rule.
  const SliceView* best = nullptr;
  double best_combined = 0.0;
  for (const SliceView& s : view.slices) {
    if (!s.merge_sibling) continue;
    const SliceView* sibling = nullptr;
    for (const SliceView& other : view.slices) {
      if (other.slice == *s.merge_sibling) sibling = &other;
    }
    if (sibling == nullptr) continue;  // sibling probe missing this round
    const double combined = s.cpu + sibling->cpu;
    if (combined >= config_.merge_share) continue;
    if (best == nullptr || combined < best_combined ||
        (combined == best_combined && s.slice < best->slice)) {
      best = &s;
      best_combined = combined;
    }
  }
  if (best == nullptr) return MigrationPlan{};
  MigrationPlan plan;
  plan.reason = MigrationPlan::Reason::kColdMerge;
  plan.merges.push_back(MigrationPlan::Merge{best->slice, *best->merge_sibling});
  return plan;
}

MigrationPlan Enforcer::local_rebalance(const SystemView& view) const {
  std::unordered_map<HostId, std::vector<SliceView>> by_host;
  for (const SliceView& s : view.slices) by_host[s.host].push_back(s);

  // Overloaded host: evict enough load to return to target, onto existing
  // hosts (allocating only if nothing fits).
  for (const HostView& host : view.hosts) {
    if (host.cpu <= config_.local_high) continue;
    const double excess = host.cpu - config_.target;
    const auto& local = by_host[host.host];
    const auto chosen = select_slices_min_state(local, excess);
    if (chosen.empty()) continue;
    std::vector<SliceView> moving;
    for (std::size_t idx : chosen) moving.push_back(local[idx]);

    MigrationPlan plan;
    plan.reason = MigrationPlan::Reason::kLocalHigh;
    plan.moves = first_fit_place(std::move(moving),
                                 bins_except(view, host.host),
                                 config_.placement_cap, 0);
    plan.new_hosts = new_hosts_of(plan.moves);
    if (!plan.moves.empty()) return plan;
  }

  // Underloaded host (and more hosts than the minimum): try to empty it.
  if (view.hosts.size() > config_.min_hosts) {
    for (const HostView& host : view.hosts) {
      if (host.cpu >= config_.local_low) continue;
      auto moves = first_fit_place(by_host[host.host],
                                   bins_except(view, host.host),
                                   config_.placement_cap, 0);
      // Cannot empty this host without a new one.
      if (new_hosts_of(moves) > 0) continue;
      MigrationPlan plan;
      plan.reason = MigrationPlan::Reason::kLocalLow;
      plan.moves = std::move(moves);
      plan.releases.push_back(host.host);
      return plan;
    }
  }
  return MigrationPlan{};
}

}  // namespace esh::elastic
