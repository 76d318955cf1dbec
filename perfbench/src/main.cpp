// perfbench: runs one benchmark workload and writes a JSON report.
//
//   perfbench --workload <steady_oracle|elastic_trace|churn_real>
//             --seed <n> --seconds <s> --trace <0|1>
//             --report <file.json> [--spans <file>]
//
// Untraced (--trace 0): repeats set-up + measured phase on fresh stacks
// until --seconds of wall clock are spent (at least once) and reports the
// measured-phase metrics over all repetitions together, the median set-up
// time, and the simulated metrics, which every repetition must reproduce
// exactly (same fingerprint).
//
// Traced (--trace 1): alternates untraced and traced repetitions (each
// traced one with fresh layer decorators and spans) until --seconds are
// spent, at least one pair; on churn_real also one on a single-thread pool.
// All fingerprints must agree. Reports the fastest traced repetition's
// per-layer self times and counters, the tracing overhead (fastest traced
// minus fastest untraced wall clock), and whether the layers' self times
// account for the untraced wall clock within that overhead.
//
// Exits 1 when an audit or fingerprint check fails, 2 on bad arguments.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "stack.hpp"
#include "trace.hpp"

namespace {

using perfbench::Layer;
using perfbench::RepResult;

// Every untraced run takes at least this many set-up samples.
constexpr std::size_t kMinSetups = 5;
// Slack of the accounting check, as a share of the untraced wall clock.
constexpr double kAccountingSlack = 0.05;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string report;
  std::string spans;
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      a.trace = std::strcmp(value, "1") == 0;
    } else if (key == "--report") {
      a.report = value;
    } else if (key == "--spans") {
      a.spans = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && !a.report.empty();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

double pub_per_wall_s(const RepResult& r) {
  return static_cast<double>(r.completed) / r.measured_s;
}

double wall_s(const RepResult& r) { return r.setup_s + r.measured_s; }

// Of reps[i] for i in `which`, the index of the one with the shortest
// set-up + measured wall clock. Host noise comes in slow phases that only
// ever add time, so the fastest repetition is the least disturbed one.
std::size_t fastest(const std::vector<RepResult>& reps,
                    const std::vector<std::size_t>& which) {
  return *std::min_element(which.begin(), which.end(),
                           [&](std::size_t a, std::size_t b) {
                             return wall_s(reps[a]) < wall_s(reps[b]);
                           });
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void write_metrics(std::FILE* f, const char* key,
                   const std::vector<Metric>& metrics) {
  std::fprintf(f, "  \"%s\": {", key);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::fprintf(f, "%s\n    \"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                 i == 0 ? "" : ",", metrics[i].name.c_str(), metrics[i].value,
                 metrics[i].unit.c_str());
  }
  std::fprintf(f, "\n  }");
}

// The end-to-end metrics; the measured-phase ones are taken over all of
// `reps` together (publications completed over the summed measured wall
// clock, mean CPU time per repetition), setup_s is the median over `reps`
// and the set-up-only samples, simulated ones come from the first
// repetition (all repetitions agree on them), and so does the peak RSS
// (`first_rss_mb`, read right after it, so that it does not depend on how
// many repetitions fit in the run).
std::vector<Metric> end_to_end(const std::vector<RepResult>& reps,
                               std::vector<double> setup,
                               double first_rss_mb) {
  double completed = 0.0, measured = 0.0, cpu = 0.0;
  std::uint64_t attempted = 0, failed = 0;
  for (const RepResult& r : reps) {
    completed += static_cast<double>(r.completed);
    measured += r.measured_s;
    cpu += r.cpu_s;
    setup.push_back(r.setup_s);
    attempted += r.attempted;
    failed += r.failed;
  }
  const RepResult& r = reps.front();
  return {
      {"pub_per_wall_s", completed / measured, "pub/s"},
      {"cpu_s", cpu / static_cast<double>(reps.size()), "s"},
      {"setup_s", median(setup), "s"},
      {"peak_rss_mb", first_rss_mb, "MB"},
      {"sim_delay_p50_ms", r.delay_p50_ms, "ms"},
      {"sim_delay_p99_ms", r.delay_p99_ms, "ms"},
      {"sim_late_ratio", r.late_ratio, "ratio"},
      {"sim_ontime_ratio", 1.0 - r.late_ratio, "ratio"},
      {"sim_host_s", r.host_s, "host-s"},
      {"failed_ratio",
       static_cast<double>(failed) / static_cast<double>(attempted), "ratio"},
  };
}

// Whether the layers' self times account for the untraced program's wall
// clock within the measured tracing overhead (plus kAccountingSlack).
struct Accounting {
  double accounted_s = 0.0;    // self times of every non-root layer
  double unaccounted_s = 0.0;  // untraced wall clock minus accounted_s
  double overhead_s = 0.0;     // traced minus untraced wall clock
  bool within = false;
};

Accounting account(const RepResult& base, const RepResult& traced,
                   const perfbench::Tracer::LayerTotals& t) {
  Accounting a;
  for (std::size_t l = 0; l < perfbench::kLayers; ++l) {
    const auto layer = static_cast<Layer>(l);
    if (layer != Layer::kSetup && layer != Layer::kMeasured) {
      a.accounted_s += t.self_s[l];
    }
  }
  a.unaccounted_s = wall_s(base) - a.accounted_s;
  a.overhead_s = wall_s(traced) - wall_s(base);
  a.within = std::abs(a.unaccounted_s) <=
             std::abs(a.overhead_s) + kAccountingSlack * wall_s(base);
  return a;
}

std::vector<Metric> per_layer(const RepResult& base, const RepResult& traced,
                              const perfbench::Tracer& tracer,
                              const Accounting& acc) {
  const auto t = tracer.totals();
  const auto at = [](Layer l) { return static_cast<std::size_t>(l); };
  const auto self = [&](Layer l) { return t.self_s[at(l)]; };
  const auto spans = [&](Layer l) { return static_cast<double>(t.spans[at(l)]); };
  const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  // Real kernels only; the oracle is reported as the workload layer.
  const double match_calls = spans(Layer::kAspeMatch) + spans(Layer::kIntervalMatch);
  const double match_pubs = count(t.items[at(Layer::kAspeMatch)] +
                                  t.items[at(Layer::kIntervalMatch)]);
  return {
      {"workload.oracle_match_s", self(Layer::kOracleMatch), "s"},
      {"workload.oracle_calls", spans(Layer::kOracleMatch), "count"},
      {"filter.aspe.match_s", self(Layer::kAspeMatch), "s"},
      {"filter.interval.match_s", self(Layer::kIntervalMatch), "s"},
      {"filter.match_calls", match_calls, "count"},
      {"filter.pubs_per_call",
       match_calls == 0 ? 0.0 : match_pubs / match_calls, "pub/call"},
      {"filter.write_s", self(Layer::kWrite), "s"},
      {"filter.writes", spans(Layer::kWrite), "count"},
      {"sim.events", count(traced.sim_events), "count"},
      {"sim.events_per_wall_s", count(base.sim_events) / base.measured_s, "1/s"},
      {"sim.self_s", self(Layer::kSimRun), "s"},
      {"workload.gen_s", self(Layer::kGen), "s"},
      {"pubsub.inject_s", self(Layer::kInject), "s"},
      {"net.messages", count(traced.net_messages), "count"},
      {"net.bytes", count(traced.net_bytes), "B"},
      {"cluster.busy_core_s", traced.busy_core_s, "s"},
      {"pubsub.notifications", count(traced.notifications), "count"},
      {"engine.migrations", count(traced.migrations), "count"},
      {"engine.bytes_shipped", count(traced.bytes_shipped), "B"},
      {"engine.interruption_ms", traced.interruption_ms, "ms"},
      {"engine.serde_s", self(Layer::kSerde), "s"},
      {"elastic.evaluations", spans(Layer::kEvaluate), "count"},
      {"elastic.evaluate_s", self(Layer::kEvaluate), "s"},
      {"elastic.plans_executed", count(traced.plans_executed), "count"},
      {"coord.committed_ops", count(traced.coord_ops), "count"},
      {"trace.wall_s", wall_s(traced), "s"},
      {"trace.untraced_wall_s", wall_s(base), "s"},
      {"trace.overhead_s", acc.overhead_s, "s"},
      {"trace.accounted_s", acc.accounted_s, "s"},
      {"trace.unaccounted_s", acc.unaccounted_s, "s"},
      {"trace.glue_s", self(Layer::kSetup) + self(Layer::kMeasured), "s"},
      {"trace.spans", count(tracer.spans().size()), "count"},
  };
}

void print_rep(const char* label, const RepResult& r) {
  std::fprintf(stderr,
               "perfbench: %-8s threads=%zu setup=%.3fs measured=%.3fs "
               "cpu=%.3fs sys=%.3fs faults=%" PRIu64 " pub/wall-s=%.1f "
               "published=%" PRIu64 " failed=%" PRIu64
               " fingerprint=%016" PRIx64 "\n",
               label, r.threads, r.setup_s, r.measured_s, r.cpu_s, r.sys_s,
               r.page_faults, pub_per_wall_s(r), r.published, r.failed,
               r.fingerprint);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  perfbench::Workload workload{};
  if (!parse(argc, argv, args) ||
      !perfbench::parse_workload(args.workload, workload)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <steady_oracle|elastic_trace|"
                 "churn_real> --seed <n> --seconds <s> --trace <0|1> "
                 "--report <file> [--spans <file>]\n");
    return 2;
  }

  try {
    std::vector<RepResult> reps;
    std::vector<double> setups;  // set-up-only samples
    std::vector<Metric> layers;
    bool accounting_ok = true;
    double first_rss_mb = 0.0;  // peak RSS after the first (audited) rep
    if (!args.trace) {
      double spent = 0.0;
      do {
        reps.push_back(perfbench::run_rep(
            workload, {.seed = args.seed, .audit = reps.empty()}));
        if (reps.size() == 1) first_rss_mb = peak_rss_mb();
        print_rep("untraced", reps.back());
        spent += reps.back().setup_s + reps.back().measured_s;
      } while (spent < args.seconds);
      while (reps.size() + setups.size() < kMinSetups) {
        setups.push_back(perfbench::run_rep(
            workload, {.seed = args.seed, .audit = false, .measure = false})
                             .setup_s);
        std::fprintf(stderr, "perfbench: set-up   %.3fs\n", setups.back());
      }
    } else {
      // reps holds untraced, traced, untraced, traced, ...: each traced
      // repetition records into a fresh tracer, and the fastest one's is
      // kept.
      std::vector<std::size_t> untraced, traced;
      perfbench::Tracer best;
      double spent = 0.0;
      do {
        untraced.push_back(reps.size());
        reps.push_back(perfbench::run_rep(
            workload, {.seed = args.seed, .audit = reps.empty()}));
        if (reps.size() == 1) first_rss_mb = peak_rss_mb();
        print_rep("untraced", reps.back());
        perfbench::Tracer tracer;
        traced.push_back(reps.size());
        reps.push_back(perfbench::run_rep(
            workload, {.seed = args.seed, .tracer = &tracer, .audit = false}));
        print_rep("traced", reps.back());
        if (fastest(reps, traced) == traced.back()) best = std::move(tracer);
        spent += wall_s(reps[untraced.back()]) + wall_s(reps.back());
      } while (spent < args.seconds);
      if (workload == perfbench::Workload::kChurnReal) {
        reps.push_back(perfbench::run_rep(
            workload, {.seed = args.seed, .threads = 1, .audit = false}));
        print_rep("1-thread", reps.back());
      }
      const RepResult& base = reps[fastest(reps, untraced)];
      const RepResult& traced_best = reps[fastest(reps, traced)];
      const Accounting acc = account(base, traced_best, best.totals());
      accounting_ok = acc.within;
      std::fprintf(stderr,
                   "perfbench: layers account for %.3fs of the untraced "
                   "%.3fs (gap %.3fs, tracing overhead %.3fs): %s\n",
                   acc.accounted_s, wall_s(base), acc.unaccounted_s,
                   acc.overhead_s,
                   acc.within ? "within the overhead"
                              : "NOT within the overhead");
      layers = per_layer(base, traced_best, best, acc);
      if (!args.spans.empty() && !best.write(args.spans)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     args.spans.c_str());
        return 1;
      }
    }

    bool same = true;
    std::uint64_t attempted = 0, failed = 0;
    for (const RepResult& r : reps) {
      same = same && r.fingerprint == reps.front().fingerprint;
      attempted += r.attempted;
      failed += r.failed;
    }
    const RepResult& first = reps.front();
    if (first.failed > 0) {
      std::fprintf(stderr,
                   "perfbench: audit failed: missing=%" PRIu64
                   " duplicated=%" PRIu64 " mismatched=%" PRIu64
                   " refused=%" PRIu64 "\n",
                   first.missing, first.duplicated, first.mismatched,
                   first.refused);
    }
    if (!same) {
      std::fprintf(stderr,
                   "perfbench: repetitions disagree on the fingerprint\n");
    }
    const bool correct = same && failed == 0;

    std::FILE* f = std::fopen(args.report.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   args.report.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\n  \"workload\": \"%s\",\n  \"seed\": %" PRIu64
                 ",\n  \"trace\": %d,\n  \"correct\": %s,\n"
                 "  \"attempted\": %" PRIu64 ",\n  \"failed\": %" PRIu64
                 ",\n  \"fingerprint\": \"%016" PRIx64
                 "\",\n  \"repetitions\": %zu,\n  \"sim_span_s\": %.6f,\n"
                 "  \"peak_hosts\": %zu,\n  \"sim_delay_max_ms\": %.3f,\n"
                 "  \"accounting_within_overhead\": %s,\n",
                 args.workload.c_str(), args.seed, args.trace ? 1 : 0,
                 correct ? "true" : "false", attempted, failed,
                 first.fingerprint, reps.size(), first.sim_span_s,
                 first.peak_hosts, first.delay_max_ms,
                 accounting_ok ? "true" : "false");
    write_metrics(f, "end_to_end", end_to_end(reps, setups, first_rss_mb));
    std::fprintf(f, ",\n");
    write_metrics(f, "per_layer", layers);
    std::fprintf(f, "\n}\n");
    if (std::fclose(f) != 0) return 1;
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
