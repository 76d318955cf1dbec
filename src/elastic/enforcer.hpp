// Elasticity enforcer (paper §V): decides slice placement from probe data
// according to global and local policy rules, minimizing the number and
// cost (state transfer) of migrations.
//
// Pure decision logic: consumes a SystemView snapshot, produces a
// MigrationPlan. The manager executes plans (allocations, migrations,
// releases). Keeping the enforcer side-effect free makes every rule and
// both resolution steps directly unit-testable.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.hpp"
#include "engine/migration_strategy.hpp"

namespace esh::elastic {

struct PolicyConfig {
  // Global rule: the average CPU load over managed hosts must stay within
  // [global_low, global_high]; violations scale the system in/out toward
  // the ideal average utilization `target` (paper: 50 %, violation at 70 %).
  double global_high = 0.70;
  double global_low = 0.30;
  double target = 0.50;
  // Local rule: a single host outside [local_low, local_high] triggers
  // re-balancing among existing hosts (evaluated only when global holds).
  double local_high = 0.80;
  double local_low = 0.10;
  // First Fit never fills a host beyond this utilization.
  double placement_cap = 0.50;
  // Grace period after any enforcement action (paper: >= 30 s).
  SimDuration grace = seconds(30);
  // Scale-out reacts faster: the paper's enforcer addresses load increases
  // "immediately", while the longer grace protects scale-in/re-balancing
  // from oscillation. Successive scale-outs may chain at this pace (the
  // sharp 9:00 surge of the tick trace needs several in a row).
  SimDuration scale_out_grace = seconds(10);
  // Never release the last host.
  std::size_t min_hosts = 1;
  // Key-level elasticity: a single splittable slice consuming more than
  // `split_share` of one host's capacity is a hotspot no migration can
  // dilute — split its key coverage instead (half stays, half moves to the
  // least-loaded host). The inverse rule merges a coverage-sibling pair
  // back when their combined load falls below `merge_share`. Disabled by
  // default: whole-slice migration remains the baseline behaviour.
  bool enable_splits = false;
  double split_share = 0.45;
  double merge_share = 0.10;
  // Migration-strategy selection (see select_strategy): a slice with at most
  // this much state stop-and-restarts (the full checkpoint ships in one hop,
  // so the minimal-transfer protocol wins and the downtime stays tiny) ...
  std::size_t strategy_small_state_bytes = 4096;
  // ... while a hot slice above this CPU share pre-copies (its input rate
  // makes every parked millisecond expensive; pay delta traffic for the
  // shortest stop). Everything between runs the paper's buffered replay.
  double strategy_hot_cpu = 0.35;
};

struct SliceView {
  SliceId slice;
  HostId host;
  // CPU consumed by the slice as a fraction of one host's capacity.
  double cpu = 0.0;
  // State size: the migration-cost signal minimized during selection.
  std::size_t state_bytes = 0;
  // True when the slice's operator supports key-level state split (filled
  // by the manager from the engine; split rules skip everything else).
  bool splittable = false;
  // Coverage-sibling that could merge back into this slice. The manager
  // sets it on the low-tag side of each sibling pair only, so every
  // mergeable pair appears exactly once in a view.
  std::optional<SliceId> merge_sibling;
};

struct HostView {
  HostId host;
  double cpu = 0.0;  // utilization in [0, 1]
};

struct SystemView {
  SimTime time{};
  std::vector<HostView> hosts;
  std::vector<SliceView> slices;

  [[nodiscard]] double average_cpu() const;
  [[nodiscard]] double total_cpu() const;
};

struct MigrationPlan {
  enum class Reason {
    kNone,
    kScaleOut,
    kScaleIn,
    kLocalHigh,
    kLocalLow,
    kHotspotSplit,
    kColdMerge,
  };

  struct Move {
    SliceId slice;
    // Destination: an existing host, or a new host when new_host_index is
    // set (hosts are allocated by the manager before executing moves).
    HostId dst;
    std::optional<std::size_t> new_host_index;
    // Migration protocol for this move plus the probed signals it was
    // derived from. Policies need not set them: the manager stamps every
    // move of every plan it executes, whichever policy built it, and
    // re-derives the choice from the same signals before executing (the
    // elastic/strategy-selection-deterministic invariant).
    engine::MigrationStrategyKind strategy =
        engine::MigrationStrategyKind::kBufferedReplay;
    std::size_t state_bytes = 0;
    double cpu = 0.0;
  };

  // Key-level split: half of `slice`'s coverage moves to a child on `dst`.
  struct Split {
    SliceId slice;
    HostId dst;
  };

  // Key-level merge: `retiree` folds back into its sibling `survivor`.
  struct Merge {
    SliceId survivor;
    SliceId retiree;
  };

  Reason reason = Reason::kNone;
  std::vector<Move> moves;
  std::size_t new_hosts = 0;
  std::vector<HostId> releases;
  std::vector<Split> splits;
  std::vector<Merge> merges;

  [[nodiscard]] bool empty() const {
    return moves.empty() && releases.empty() && new_hosts == 0 &&
           splits.empty() && merges.empty();
  }
};

const char* to_string(MigrationPlan::Reason r);

// ---- resolution-step primitives (exposed for tests and benches) ----------

// Pure strategy choice from a slice's probed signals: small state ->
// stop-and-restart (fewest bytes), hot slice -> incremental pre-copy
// (shortest stop), otherwise the paper's buffered replay. Deterministic in
// its arguments by construction; the manager stamps each planned move with
// it and re-derives it at execution time to cross-check the plan.
[[nodiscard]] engine::MigrationStrategyKind select_strategy(
    const PolicyConfig& policy, std::size_t state_bytes, double cpu);

// Subset-sum slice selection (paper §V): returns the subset of `slices`
// whose summed CPU is >= `required_cpu`, among all such subsets one with
// minimal summed state_bytes. Weights are discretized to permille. Returns
// indices into `slices`; selects everything if the total is insufficient.
std::vector<std::size_t> select_slices_min_state(
    const std::vector<SliceView>& slices, double required_cpu);

// First Fit placement: assigns each of `moving` (processed in decreasing
// CPU order) to the first host whose load stays below `cap`. `extra_bins`
// adds that many empty candidate bins (new hosts). Assignments to new bins
// use new_host_index; slices that fit nowhere get additional new bins.
std::vector<MigrationPlan::Move> first_fit_place(
    std::vector<SliceView> moving, std::vector<HostView> bins, double cap,
    std::size_t extra_bins);

// New hosts a plan's moves name: the highest new_host_index + 1, or 0. A
// slice above `cap` opens a bin past the `extra_bins` ones, which then stay
// empty, so this can exceed the number of bins that received load.
[[nodiscard]] std::size_t new_hosts_of(
    const std::vector<MigrationPlan::Move>& moves);

class Enforcer {
 public:
  explicit Enforcer(PolicyConfig config);

  // Evaluates the policy against a fresh snapshot. Returns an empty plan
  // while the grace period since the last action is still running or no
  // rule is violated. Slices in the view must all live on view hosts.
  [[nodiscard]] MigrationPlan evaluate(const SystemView& view);

  [[nodiscard]] const PolicyConfig& config() const { return config_; }
  [[nodiscard]] SimTime last_action() const { return last_action_; }

 private:
  [[nodiscard]] MigrationPlan scale_out(const SystemView& view) const;
  [[nodiscard]] MigrationPlan scale_in(const SystemView& view) const;
  [[nodiscard]] MigrationPlan local_rebalance(const SystemView& view) const;
  [[nodiscard]] MigrationPlan hotspot_split(const SystemView& view) const;
  [[nodiscard]] MigrationPlan cold_merge(const SystemView& view) const;

  PolicyConfig config_;
  SimTime last_action_{-config_.grace};
  bool acted_once_ = false;
};

}  // namespace esh::elastic
