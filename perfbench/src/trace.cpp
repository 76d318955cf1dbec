#include "trace.hpp"

#include <cstdio>
#include <cstring>
#include <stdexcept>

namespace perfbench {

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kSetup: return "setup";
    case Layer::kMeasured: return "measured";
    case Layer::kSimRun: return "sim.run";
    case Layer::kGen: return "workload.gen";
    case Layer::kInject: return "pubsub.inject";
    case Layer::kOracleMatch: return "workload.oracle_match";
    case Layer::kAspeMatch: return "filter.aspe.match";
    case Layer::kIntervalMatch: return "filter.interval.match";
    case Layer::kWrite: return "filter.write";
    case Layer::kSerde: return "engine.serde";
    case Layer::kEvaluate: return "elastic.evaluate";
    case Layer::kCount: break;
  }
  return "?";
}

std::uint32_t Tracer::open(Layer layer) {
  const auto index = static_cast<std::uint32_t>(spans_.size());
  Span span;
  span.layer = layer;
  span.parent = open_.empty() ? kNoParent : open_.back();
  span.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - origin_)
                      .count();
  spans_.push_back(span);
  open_.push_back(index);
  return index;
}

void Tracer::close(std::uint32_t index) {
  if (open_.empty() || open_.back() != index) {
    throw std::logic_error{"Tracer: spans must close innermost first"};
  }
  open_.pop_back();
  spans_[index].end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                             Clock::now() - origin_)
                             .count();
}

Tracer::LayerTotals Tracer::totals() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent != kNoParent) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  LayerTotals out;
  out.items = items_;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const auto l = static_cast<std::size_t>(s.layer);
    ++out.spans[l];
    out.self_s[l] +=
        static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) * 1e-9;
  }
  return out;
}

namespace {
template <typename T>
void put(std::FILE* f, T v) {
  unsigned char bytes[sizeof(T)];
  std::memcpy(bytes, &v, sizeof(T));
  std::fwrite(bytes, 1, sizeof(T), f);
}
}  // namespace

bool Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  std::fwrite("PBSPANS1", 1, 8, f);
  put<std::uint32_t>(f, static_cast<std::uint32_t>(kLayers));
  for (std::size_t l = 0; l < kLayers; ++l) {
    const char* name = layer_name(static_cast<Layer>(l));
    const auto len = static_cast<std::uint8_t>(std::strlen(name));
    put<std::uint8_t>(f, len);
    std::fwrite(name, 1, len, f);
  }
  put<std::uint64_t>(f, spans_.size());
  for (const Span& s : spans_) {
    put<std::uint8_t>(f, static_cast<std::uint8_t>(s.layer));
    put<std::uint32_t>(f, s.parent);
    put<std::int64_t>(f, s.start_ns);
    put<std::int64_t>(f, s.end_ns);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
