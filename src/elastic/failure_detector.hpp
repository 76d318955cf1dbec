// Manager-side failure detection (paper §IV-B): hosts heartbeat through
// their periodic probes; a host that misses enough consecutive probe
// intervals is first *suspected* and then declared *dead*. Dead verdicts
// are final — a dead host never returns to alive; a replacement registers
// as a new host. The manager records dead verdicts in the coordination tree
// so a restarted or promoted standby manager inherits them (mark_dead).
//
// Suspicion is accrual-style over two signals:
//   - probe inter-arrival (silence): missed intervals escalate alive ->
//     suspect -> dead, as before;
//   - probe latency (gray failures): a host that still heartbeats but whose
//     smoothed one-way probe delay drifts past a configurable multiple of
//     its baseline becomes *suspect* without ever convicting it dead.
//     Latency suspicion clears itself when the smoothed delay recovers.
// External evidence (a reliable control channel exhausting its retry
// budget) can also raise suspicion via report_unreachable(); like latency,
// it never convicts on its own — only silence kills.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "common/types.hpp"
#include "sim/simulator.hpp"

namespace esh::elastic {

enum class HostHealth { kAlive, kSuspect, kDead };

const char* to_string(HostHealth h);

struct FailureDetectorConfig {
  // Expected heartbeat period: must match the engine's probe_interval.
  SimDuration probe_interval = seconds(5);
  // Consecutive missed intervals before escalation.
  std::uint32_t suspect_after = 2;
  std::uint32_t dead_after = 4;
  // Gray-failure (latency) suspicion: suspect a host whose smoothed probe
  // delay exceeds latency_suspect_factor x its baseline. 0 disables the
  // latency signal entirely (and heartbeat delays are ignored).
  double latency_suspect_factor = 0.0;
  // Baseline one-way probe delay; zero means learn it per host from the
  // first delay sample (the cluster is healthy at watch time).
  SimDuration latency_baseline{};
  // EWMA smoothing applied to delay samples (weight of the newest sample).
  double latency_ewma_alpha = 0.25;
};

// Structured verdict event handed to the manager's callbacks.
struct HealthEvent {
  HostId host;
  HostHealth verdict = HostHealth::kAlive;
  SimTime at{};
  // Silence observed when the verdict was reached.
  SimDuration silence{};
  // Accrual suspicion score when the verdict was reached (see suspicion()).
  double score = 0.0;
  // Smoothed one-way probe delay at the verdict (zero if no sample yet).
  SimDuration delay{};
};

class FailureDetector {
 public:
  using Callback = std::function<void(const HealthEvent&)>;

  FailureDetector(sim::Simulator& simulator, FailureDetectorConfig config);

  void on_suspect(Callback cb) { on_suspect_ = std::move(cb); }
  void on_dead(Callback cb) { on_dead_ = std::move(cb); }
  // Fires when a suspect host recovers to alive (silence ended or latency
  // EWMA back under threshold) — lets the manager call off a drain.
  void on_recovered(Callback cb) { on_recovered_ = std::move(cb); }

  // Starts the deadline clock for `host` (grace starts now, not at the
  // first heartbeat). Watching an already-watched host resets its clock;
  // watching a dead host is a no-op (verdicts are final).
  void watch(HostId host);
  void unwatch(HostId host);

  // A probe arrived. Clears a silence-based suspect verdict; ignored for
  // dead or unwatched hosts.
  void heartbeat(HostId host);
  // A probe arrived carrying its one-way delay (arrival time minus the
  // probe's send timestamp). Feeds the latency EWMA: the host turns
  // suspect when the smoothed delay exceeds the configured multiple of its
  // baseline, and back alive when it recovers. Latency never convicts dead.
  void heartbeat(HostId host, SimDuration delay);

  // External unreachability evidence (e.g. a reliable control channel gave
  // up on the host after exhausting its retry budget): escalates an alive
  // host to suspect immediately instead of waiting out the probe silence.
  // Never convicts dead; a subsequent heartbeat clears it.
  void report_unreachable(HostId host);

  // Records an inherited verdict (e.g. read from the coordination tree by
  // a promoted standby). Does not fire callbacks: the caller already knows.
  void mark_dead(HostId host);

  // Forgets every watched host and its verdict (events() keeps the
  // history). A manager that loses leadership stops hearing the probes; it
  // must not convict the hosts its successor watches, and if promoted
  // again it re-watches the fleet and re-reads the inherited verdicts.
  void reset() { watched_.clear(); }

  [[nodiscard]] HostHealth health(HostId host) const;
  [[nodiscard]] bool watching(HostId host) const;
  [[nodiscard]] std::vector<HostId> dead_hosts() const;
  // Accrual suspicion score: missed-interval count (silence divided by the
  // probe interval) plus the latency ratio (smoothed delay over the suspect
  // threshold; 0 when the latency signal is disabled or unsampled). A score
  // >= suspect_after, or a latency ratio >= 1, warrants suspicion.
  [[nodiscard]] double suspicion(HostId host) const;
  // Smoothed one-way probe delay (zero before the first sample).
  [[nodiscard]] SimDuration smoothed_delay(HostId host) const;
  [[nodiscard]] const std::vector<HealthEvent>& events() const {
    return events_;
  }
  [[nodiscard]] const FailureDetectorConfig& config() const { return config_; }

 private:
  struct Watched {
    SimTime last_heard{};
    HostHealth health = HostHealth::kAlive;
    // Latency tracking (gray-failure signal), microseconds.
    double delay_ewma_us = 0.0;
    double baseline_us = 0.0;  // 0 until learned / configured
    bool has_delay = false;
    // True while the current suspect verdict is held up by latency (it
    // survives heartbeats until the EWMA recovers).
    bool latency_suspect = false;
  };

  void sweep();
  void suspect(HostId host, Watched& w, SimDuration silence);
  void recover(HostId host, Watched& w);
  [[nodiscard]] double latency_ratio(const Watched& w) const;

  sim::Simulator& simulator_;
  FailureDetectorConfig config_;
  std::map<HostId, Watched> watched_;
  Callback on_suspect_;
  Callback on_dead_;
  Callback on_recovered_;
  std::vector<HealthEvent> events_;
  std::unique_ptr<sim::PeriodicTimer> sweep_timer_;
};

}  // namespace esh::elastic
