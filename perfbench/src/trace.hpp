// In-memory span recorder for the traced run. Spans are recorded around the
// calls the benchmark makes into each layer (and around the calls the layers
// make back into the benchmark's decorators), kept in memory, and written
// out once at the end. Every span runs on the simulator thread: the matcher
// kernels' pool workers never call back into the benchmark, so a plain
// stack of open spans gives each span its parent.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class Layer : std::uint8_t {
  kSetup,           // root: build the cluster and store the subscriptions
  kMeasured,        // root: publish, drain
  kSimRun,          // Simulator::run_until (DES + host scheduler + net + ops)
  kGen,             // workload generator: next publication / subscription
  kInject,          // StreamHub::publish / subscribe / unsubscribe
  kOracleMatch,     // OracleMatcher::match / match_batch
  kAspeMatch,       // AspeMatcher::match / match_batch
  kIntervalMatch,   // IntervalIndexMatcher::match / match_batch
  kWrite,           // Matcher::add / remove
  kSerde,           // Matcher serialize / restore / split / absorb
  kEvaluate,        // Enforcer::evaluate
  kCount
};
constexpr std::size_t kLayers = static_cast<std::size_t>(Layer::kCount);

[[nodiscard]] const char* layer_name(Layer layer);

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;
  static constexpr std::uint32_t kNoParent = UINT32_MAX;

  struct Span {
    Layer layer = Layer::kCount;
    std::uint32_t parent = kNoParent;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  // Per layer: spans, items counted at the boundary (publications per match
  // call) and summed self time (duration minus the time covered by direct
  // children), in seconds.
  struct LayerTotals {
    std::array<std::uint64_t, kLayers> spans{};
    std::array<std::uint64_t, kLayers> items{};
    std::array<double, kLayers> self_s{};
  };

  std::uint32_t open(Layer layer);
  void close(std::uint32_t index);
  void count(Layer layer, std::uint64_t items) {
    items_[static_cast<std::size_t>(layer)] += items;
  }

  [[nodiscard]] LayerTotals totals() const;
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  // Binary dump in host byte order: "PBSPANS1", u32 layer-name count, the
  // names (u8 length + bytes), u64 span count, then per span u8 layer, u32
  // parent (UINT32_MAX for a root), i64 start, i64 end (nanoseconds since
  // the tracer was created).
  bool write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
  std::array<std::uint64_t, kLayers> items_{};
  Clock::time_point origin_ = Clock::now();
};

// RAII span; a null tracer makes it a no-op (the untraced run).
class Scope {
 public:
  Scope(Tracer* tracer, Layer layer)
      : tracer_(tracer),
        index_(tracer != nullptr ? tracer->open(layer) : 0) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->close(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  std::uint32_t index_;
};

}  // namespace perfbench
