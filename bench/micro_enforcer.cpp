// Micro-benchmarks and quality comparison of the elasticity enforcer's two
// resolution steps (paper §V): pseudo-polynomial subset-sum slice selection
// and First Fit Decreasing placement. Also quantifies the design choices:
// FFD against naive sequential placement (host count), and min-state
// selection against a CPU-only greedy pick (bytes transferred) — the
// ablation DESIGN.md calls out.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <vector>

#include "common/rng.hpp"
#include "elastic/enforcer.hpp"

namespace {

using namespace esh;
using namespace esh::elastic;

std::vector<SliceView> random_slices(std::size_t count, Rng& rng) {
  std::vector<SliceView> slices;
  slices.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    slices.push_back(SliceView{SliceId{i + 1}, HostId{1},
                               rng.uniform(0.01, 0.2),
                               100 + rng.next_below(20'000'000), false, {}});
  }
  return slices;
}

void BM_SubsetSumSelection(benchmark::State& state) {
  Rng rng{9};
  auto slices = random_slices(static_cast<std::size_t>(state.range(0)), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(select_slices_min_state(slices, 0.4));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SubsetSumSelection)->RangeMultiplier(2)->Range(8, 128)
    ->Complexity();

void BM_FirstFitPlacement(benchmark::State& state) {
  Rng rng{10};
  auto moving = random_slices(static_cast<std::size_t>(state.range(0)), rng);
  std::vector<HostView> bins;
  for (std::size_t h = 0; h < 30; ++h) {
    bins.push_back(HostView{HostId{h + 1}, rng.uniform(0.0, 0.45)});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(first_fit_place(moving, bins, 0.5, 8));
  }
}
BENCHMARK(BM_FirstFitPlacement)->RangeMultiplier(2)->Range(8, 256);

void BM_EnforcerEvaluate(benchmark::State& state) {
  Rng rng{11};
  const std::size_t hosts = static_cast<std::size_t>(state.range(0));
  SystemView view;
  view.time = seconds(120);
  for (std::size_t h = 0; h < hosts; ++h) {
    view.hosts.push_back(HostView{HostId{h + 1}, rng.uniform(0.6, 0.95)});
    for (int s = 0; s < 4; ++s) {
      view.slices.push_back(SliceView{
          SliceId{h * 4 + static_cast<std::size_t>(s) + 1}, HostId{h + 1},
          rng.uniform(0.1, 0.25), 1000 + rng.next_below(10'000'000), false,
          {}});
    }
  }
  for (auto _ : state) {
    Enforcer enforcer{PolicyConfig{}};
    benchmark::DoNotOptimize(enforcer.evaluate(view));
  }
}
BENCHMARK(BM_EnforcerEvaluate)->RangeMultiplier(2)->Range(2, 32);

// ---- quality comparisons (printed once) ---------------------------------------

void report_quality() {
  Rng rng{21};
  // (a) Selection: min-state subset sum vs greedy largest-CPU-first.
  double dp_bytes = 0.0, greedy_bytes = 0.0;
  for (int trial = 0; trial < 200; ++trial) {
    auto slices = random_slices(12, rng);
    const double required = 0.35;
    const auto chosen = select_slices_min_state(slices, required);
    for (auto i : chosen) dp_bytes += static_cast<double>(slices[i].state_bytes);

    auto by_cpu = slices;
    std::sort(by_cpu.begin(), by_cpu.end(),
              [](const SliceView& a, const SliceView& b) {
                return a.cpu > b.cpu;
              });
    double sum = 0.0;
    for (const auto& s : by_cpu) {
      if (sum >= required) break;
      sum += s.cpu;
      greedy_bytes += static_cast<double>(s.state_bytes);
    }
  }
  std::printf(
      "\n[selection ablation] state transferred per scale-out decision:\n"
      "  subset-sum min-state: %.1f MB   greedy max-cpu: %.1f MB "
      "(%.1fx more)\n",
      dp_bytes / 200 / 1e6, greedy_bytes / 200 / 1e6,
      greedy_bytes / dp_bytes);

  // (b) Placement: First Fit Decreasing vs arrival-order First Fit.
  std::size_t ffd_bins = 0, naive_bins = 0;
  for (int trial = 0; trial < 200; ++trial) {
    auto moving = random_slices(24, rng);
    std::vector<HostView> bins;  // empty cluster: pure packing quality
    ffd_bins += new_hosts_of(first_fit_place(moving, bins, 0.5, 64));

    // Arrival order (no sort): simulate by assigning sequentially.
    std::vector<double> loads;
    for (const auto& s : moving) {
      bool placed = false;
      for (double& load : loads) {
        if (load + s.cpu <= 0.5) {
          load += s.cpu;
          placed = true;
          break;
        }
      }
      if (!placed) loads.push_back(s.cpu);
    }
    naive_bins += loads.size();
  }
  std::printf(
      "[placement ablation] hosts needed to absorb 24 migrating slices:\n"
      "  First Fit Decreasing: %.2f   arrival-order First Fit: %.2f\n",
      static_cast<double>(ffd_bins) / 200,
      static_cast<double>(naive_bins) / 200);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  report_quality();
  return 0;
}
