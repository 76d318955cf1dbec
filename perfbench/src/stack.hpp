// The three benchmark workloads. Each repetition assembles a fresh
// E-STREAMHUB stack from the public APIs (as harness/testbed.cpp does),
// stores the subscriptions (set-up), publishes for a fixed simulated span
// and drains (measured phase), then audits every publication for
// exactly-once delivery of the right subscriber set.
#pragma once

#include <cstdint>
#include <string>

#include "trace.hpp"

namespace perfbench {

enum class Workload { kSteadyOracle, kElasticTrace, kChurnReal };

// Parses a workload name; returns false for an unknown one.
bool parse_workload(const std::string& name, Workload& out);

struct RepOptions {
  std::uint64_t seed = 1;
  // Engine worker pool size (counts the simulator thread); 0 = the
  // workload's default.
  std::size_t threads = 0;
  // Non-null: install the layer decorators and record spans.
  Tracer* tracer = nullptr;
  // Compare every delivery with the reference after the drain. The sink's
  // delivery ledger is kept either way, so the measured phase does the same
  // work; a repetition that skips the comparison is checked through its
  // fingerprint instead.
  bool audit = true;
  // False: stop after set-up (extra set-up samples for the setup_s median).
  bool measure = true;
};

struct RepResult {
  // ---- wall clock / CPU (this process) ----
  double setup_s = 0.0;     // build the cluster + store the subscriptions
  double measured_s = 0.0;  // publish + drain
  double cpu_s = 0.0;       // process CPU time of the measured phase
  double sys_s = 0.0;       // of which in the kernel
  std::uint64_t page_faults = 0;  // minor page faults in the measured phase
  std::size_t threads = 1;

  // ---- operations and the audit (zero when not audited) ----
  std::uint64_t attempted = 0;  // publications + subscribe/unsubscribe ops
  std::uint64_t failed = 0;
  std::uint64_t missing = 0, duplicated = 0, mismatched = 0, refused = 0;

  // ---- simulated results ----
  std::uint64_t published = 0;
  std::uint64_t completed = 0;
  std::uint64_t notifications = 0;
  double delay_p50_ms = 0.0;
  double delay_p99_ms = 0.0;
  double delay_max_ms = 0.0;
  double late_ratio = 0.0;  // share of completed publications over 1 s
  double host_s = 0.0;      // worker host-seconds rented, measured phase
  std::size_t peak_hosts = 0;
  double sim_span_s = 0.0;  // simulated length of the measured phase

  // ---- deterministic work counters ----
  std::uint64_t sim_events = 0;  // dispatched in the measured phase
  std::uint64_t net_messages = 0;
  std::uint64_t net_bytes = 0;
  double busy_core_s = 0.0;  // hosts still rented at the end of the rep
  std::uint64_t migrations = 0;
  std::uint64_t bytes_shipped = 0;
  double interruption_ms = 0.0;
  std::uint64_t plans_executed = 0;
  std::uint64_t coord_ops = 0;

  // FNV-1a over completions, notifications, delay percentiles, network
  // counters, per-host busy time, host-count history and migrations.
  std::uint64_t fingerprint = 0;
};

RepResult run_rep(Workload workload, const RepOptions& options);

}  // namespace perfbench
