#include "stack.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <ctime>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "cluster/iaas.hpp"
#include "common/rng.hpp"
#include "coord/coord.hpp"
#include "elastic/manager.hpp"
#include "engine/engine.hpp"
#include "filter/aspe.hpp"
#include "filter/interval_index.hpp"
#include "filter/matcher.hpp"
#include "net/network.hpp"
#include "pubsub/streamhub.hpp"
#include "sim/simulator.hpp"
#include "workload/driver.hpp"
#include "workload/generator.hpp"
#include "workload/oracle.hpp"
#include "workload/schedule.hpp"

namespace perfbench {
namespace {

using namespace esh;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Process CPU time, kernel CPU time and minor page faults so far.
struct Usage {
  double cpu_s = 0.0;
  double sys_s = 0.0;
  std::uint64_t faults = 0;

  static Usage now() {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return {static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9,
            static_cast<double>(ru.ru_stime.tv_sec) +
                static_cast<double>(ru.ru_stime.tv_usec) * 1e-6,
            static_cast<std::uint64_t>(ru.ru_minflt)};
  }
  // Stores the usage since `start` as r's measured-phase usage.
  void store_since(const Usage& start, RepResult& r) const {
    r.cpu_s = cpu_s - start.cpu_s;
    r.sys_s = sys_s - start.sys_s;
    r.page_faults = faults - start.faults;
  }
};

// ---- workload constants ------------------------------------------------------

// Paper scale (§VI-A/B): d = 4, 100 K subscriptions at 1 % matching rate,
// 8/16/8 AP/M/EP slices, 4 source + 4 sink slices on 4 dedicated I/O hosts.
constexpr std::size_t kDims = 4;
constexpr std::size_t kOracleSubs = 100'000;
constexpr double kMatchingRate = 0.01;
constexpr std::size_t kIoHosts = 4;

// steady_oracle: Fig. 6 operating point on 12 static workers.
constexpr std::size_t kSteadyWorkers = 12;
constexpr std::int64_t kSteadyPublishS = 20;

// elastic_trace: Fig. 9 set-up, Frankfurt trace 7:00 -> 10:30 (the 9:00
// open surge, its backlog, and the scale-back once the backlog clears).
constexpr double kTraceStartHour = 7.0;
constexpr double kTraceEndHour = 10.5;
constexpr std::int64_t kTraceTailS = 60;
constexpr std::size_t kElasticMaxWorkers = 30;

// churn_real: real kernels, two M operators side by side.
constexpr std::size_t kChurnWorkers = 8;
constexpr std::size_t kChurnAspeSubs = 20'000;
constexpr std::size_t kChurnPlainSubs = 50'000;
constexpr std::size_t kChurnSlices = 8;  // per scheme
constexpr double kChurnPubRate = 100.0;  // half encrypted, half plain
constexpr double kChurnOpsRate = 100.0;  // subscribe/unsubscribe per second
constexpr std::size_t kChurnFringe = 1'000;  // target live fringe per scheme
constexpr std::int64_t kChurnPublishS = 20;
constexpr std::size_t kChurnProbes = 200;  // audit probes, half per scheme
constexpr SimDuration kChurnProbeGap = millis(10);
constexpr std::size_t kChurnMaxThreads = 4;
// Id ranges (the two schemes' subscriptions and subscribers are disjoint).
constexpr std::uint64_t kEncBase = 1'000'000;
constexpr std::uint64_t kPlainFringeBase = 2'000'000;
constexpr std::uint64_t kEncFringeBase = 3'000'000;

// The engine's own randomness (control-tick jitter) is configuration, not
// workload input: fixed, like the paper testbed's seed.
constexpr std::uint64_t kEngineSeed = 2014;
// elastic_trace replays the trace with fixed arrival times -- those of
// bench/fig9_trace_elastic (Testbed::drive with seed 2014) -- and --seed
// draws the subscriptions and the publications' match sets.
constexpr std::uint64_t kTraceArrivalSeed = 2014 ^ 0x5bf0'3635'dcf9'8e6bULL;

constexpr double kSubscriptionRate = 20'000.0;  // storage pacing, per second
constexpr double kLateMs = 1000.0;              // the paper's Fig. 9 bound
constexpr SimDuration kDrainPoll = millis(100);
constexpr SimDuration kDrainTimeout = seconds(900);

// ---- observers ---------------------------------------------------------------

// Forwarding decorator installed through the matcher factory: times every
// call into the filtering library and forwards it unchanged. It overrides
// every virtual, wraps the clones it hands out, and passes the borrowed
// worker pool (set on the decorator by MHandler) to the inner matcher, so
// the traced program is the untraced one plus clock reads.
class TracedMatcher final : public filter::Matcher {
 public:
  TracedMatcher(std::unique_ptr<filter::Matcher> inner, Tracer& tracer,
                Layer match_layer)
      : inner_(std::move(inner)), tracer_(tracer), match_layer_(match_layer) {}

  void add(const filter::AnySubscription& sub) override {
    const Scope scope{&tracer_, Layer::kWrite};
    sync_pool();
    inner_->add(sub);
  }
  bool remove(SubscriptionId id) override {
    const Scope scope{&tracer_, Layer::kWrite};
    sync_pool();
    return inner_->remove(id);
  }
  filter::MatchOutcome match(const filter::AnyPublication& pub) override {
    const Scope scope{&tracer_, match_layer_};
    sync_pool();
    tracer_.count(match_layer_, 1);
    return inner_->match(pub);
  }
  std::vector<filter::MatchOutcome> match_batch(
      std::span<const filter::AnyPublication> pubs) override {
    const Scope scope{&tracer_, match_layer_};
    sync_pool();
    tracer_.count(match_layer_, pubs.size());
    return inner_->match_batch(pubs);
  }
  [[nodiscard]] double estimate_match_units() const override {
    return inner_->estimate_match_units();
  }
  [[nodiscard]] std::size_t subscription_count() const override {
    return inner_->subscription_count();
  }
  [[nodiscard]] std::size_t state_bytes() const override {
    return inner_->state_bytes();
  }
  void serialize_state(BinaryWriter& w) const override {
    const Scope scope{&tracer_, Layer::kSerde};
    sync_pool();
    inner_->serialize_state(w);
  }
  void restore_state(BinaryReader& r) override {
    const Scope scope{&tracer_, Layer::kSerde};
    sync_pool();
    inner_->restore_state(r);
  }
  std::size_t split_state(const KeyCoverage& cov, BinaryWriter& w) override {
    const Scope scope{&tracer_, Layer::kSerde};
    sync_pool();
    return inner_->split_state(cov, w);
  }
  void absorb_state(BinaryReader& r) override {
    const Scope scope{&tracer_, Layer::kSerde};
    sync_pool();
    inner_->absorb_state(r);
  }
  [[nodiscard]] std::unique_ptr<filter::Matcher> clone_empty() const override {
    auto clone = std::make_unique<TracedMatcher>(inner_->clone_empty(),
                                                 tracer_, match_layer_);
    clone->set_thread_pool(thread_pool());
    return clone;
  }
  [[nodiscard]] std::string scheme_name() const override {
    return inner_->scheme_name();
  }

 private:
  // set_thread_pool is not virtual: hand the pool down before each call.
  void sync_pool() const { inner_->set_thread_pool(thread_pool()); }

  std::unique_ptr<filter::Matcher> inner_;
  Tracer& tracer_;
  Layer match_layer_;
};

using MatcherFactory =
    std::function<std::unique_ptr<filter::Matcher>(std::size_t)>;

MatcherFactory observed(MatcherFactory make, Tracer* tracer, Layer layer) {
  if (tracer == nullptr) return make;
  return [make = std::move(make), tracer, layer](std::size_t i) {
    return std::make_unique<TracedMatcher>(make(i), *tracer, layer);
  };
}

// ---- fingerprint -------------------------------------------------------------

class Fingerprint {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xffU;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

// ---- the stack ---------------------------------------------------------------

// The paper's worker layout (§VI-C): twice as many hosts for M as for each
// of AP and EP; with 2 hosts, AP and EP share one.
pubsub::HostAssignment paper_layout(const std::vector<HostId>& workers) {
  pubsub::HostAssignment assignment;
  const std::size_t n = workers.size();
  if (n == 1) {
    assignment["AP"] = workers;
    assignment["M"] = workers;
    assignment["EP"] = workers;
    return assignment;
  }
  const std::size_t m_hosts = std::max<std::size_t>(1, n / 2);
  const std::size_t rest = n - m_hosts;
  const std::size_t ap_hosts = (rest + 1) / 2;
  const auto at = [&](std::size_t i) {
    return workers.begin() + static_cast<std::ptrdiff_t>(i);
  };
  std::vector<HostId> ap(at(0), at(ap_hosts));
  std::vector<HostId> ep(at(ap_hosts), at(rest));
  if (ep.empty()) ep = ap;
  assignment["AP"] = std::move(ap);
  assignment["EP"] = std::move(ep);
  assignment["M"] = std::vector<HostId>(at(rest), workers.end());
  return assignment;
}

struct StackConfig {
  std::size_t worker_hosts = 1;
  std::size_t max_worker_hosts = 1;  // IaaS budget for the elastic pool
  pubsub::StreamHubParams hub;
  engine::EngineConfig engine;
  bool with_manager = false;
};

// Simulator, network, IaaS pool, coordination service, engine, STREAMHUB
// and (optionally) the manager, on 1 manager + 4 I/O + N worker hosts.
// Member order is teardown order in reverse: manager, hub and engine go
// before the simulator.
struct Stack {
  explicit Stack(const StackConfig& config) {
    network = std::make_unique<net::Network>(simulator);
    cluster::IaasConfig iaas;
    iaas.max_hosts = config.max_worker_hosts + 1 + kIoHosts;
    pool = std::make_unique<cluster::IaasPool>(simulator, iaas);
    coord = std::make_unique<coord::CoordService>(simulator);
    manager_host = pool->allocate(nullptr);
    for (std::size_t i = 0; i < kIoHosts; ++i) {
      io_hosts.push_back(pool->allocate(nullptr));
    }
    for (std::size_t i = 0; i < config.worker_hosts; ++i) {
      worker_hosts.push_back(pool->allocate(nullptr));
    }
    simulator.run_until(simulator.now() + iaas.boot_delay + millis(1));

    engine = std::make_unique<engine::Engine>(simulator, *network,
                                              manager_host, config.engine,
                                              kEngineSeed);
    for (HostId host : io_hosts) engine->add_host(pool->host(host));
    for (HostId host : worker_hosts) engine->add_host(pool->host(host));

    hub = std::make_unique<pubsub::StreamHub>(*engine, config.hub);
    pubsub::HostAssignment assignment = paper_layout(worker_hosts);
    assignment[config.hub.names.source] = io_hosts;
    assignment[config.hub.names.sink] = io_hosts;
    hub->deploy(assignment);

    if (config.with_manager) {
      manager = std::make_unique<elastic::Manager>(
          simulator, *network, *engine, *pool, *coord, manager_host,
          elastic::ManagerConfig{});
      manager->start(worker_hosts);
    }
  }

  [[nodiscard]] pubsub::DelayCollector& delays() { return *hub->collector(); }

  sim::Simulator simulator;
  std::unique_ptr<net::Network> network;
  std::unique_ptr<cluster::IaasPool> pool;
  std::unique_ptr<coord::CoordService> coord;
  std::unique_ptr<engine::Engine> engine;
  std::unique_ptr<pubsub::StreamHub> hub;
  std::unique_ptr<elastic::Manager> manager;
  HostId manager_host;
  std::vector<HostId> io_hosts;
  std::vector<HostId> worker_hosts;
};

// Runs the simulator to `until` inside a sim.run span; returns the events.
std::uint64_t run_to(Stack& s, Tracer* tracer, SimTime until) {
  const Scope scope{tracer, Layer::kSimRun};
  return s.simulator.run_until(until);
}

// Stores subscriptions 0..count-1 paced at kSubscriptionRate, each made by
// `make(i)` and subscribed inside its own simulator event, and runs until
// the M slices hold all of them.
void store(Stack& s, Tracer* tracer, std::size_t count,
           const std::function<filter::AnySubscription(std::size_t)>& make) {
  const auto gap = micros(static_cast<std::int64_t>(1e6 / kSubscriptionRate) + 1);
  SimTime at = s.simulator.now();
  for (std::size_t i = 0; i < count; ++i) {
    at += gap;
    s.simulator.schedule_at(at, [&s, tracer, &make, i] {
      filter::AnySubscription sub = [&] {
        const Scope scope{tracer, Layer::kGen};
        return make(i);
      }();
      const Scope scope{tracer, Layer::kInject};
      s.hub->subscribe(std::move(sub));
    });
  }
  const SimTime deadline = at + seconds(600);
  while (s.hub->stored_subscriptions() < count) {
    if (s.simulator.now() >= deadline) {
      throw std::runtime_error{"perfbench: subscription storage timed out"};
    }
    run_to(s, tracer, s.simulator.now() + kDrainPoll);
  }
}

// Runs until every injected publication completed (or the drain times out;
// the audit then reports the stragglers as missing). Returns the events.
std::uint64_t drain(Stack& s, Tracer* tracer) {
  std::uint64_t events = 0;
  const SimTime deadline = s.simulator.now() + kDrainTimeout;
  while (s.delays().publications_completed() < s.hub->publications_sent() &&
         s.simulator.now() < deadline) {
    events += run_to(s, tracer, s.simulator.now() + kDrainPoll);
  }
  return events;
}

// Worker host-seconds rented over [from, to]: the IaaS pool's active-host
// history minus the dedicated manager and I/O hosts.
double worker_host_seconds(const cluster::IaasPool& pool, SimTime from,
                           SimTime to) {
  double total = 0.0;
  const auto& history = pool.count_history();
  for (std::size_t i = 0; i < history.size(); ++i) {
    const SimTime begin = std::max(history[i].time, from);
    const SimTime end = i + 1 < history.size()
                            ? std::min(history[i + 1].time, to)
                            : to;
    if (end <= begin) continue;
    const double workers =
        static_cast<double>(history[i].count) - 1.0 - kIoHosts;
    total += workers * to_seconds(end - begin);
  }
  return total;
}

// Fraction of the recorded delays above `limit_ms` (the tracker keeps its
// samples private; the percentile at p = 100 k / (n - 1) is sample k).
double share_above(const PercentileTracker& t, double limit_ms) {
  const std::size_t n = t.count();
  if (n < 2) return n == 1 && t.percentile(100) > limit_ms ? 1.0 : 0.0;
  const auto sample = [&](std::size_t k) {
    return t.percentile(std::min(
        100.0, 100.0 * static_cast<double>(k) / static_cast<double>(n - 1)));
  };
  std::size_t lo = 0, hi = n;  // first k with sample(k) > limit
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (sample(mid) > limit_ms) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return static_cast<double>(n - lo) / static_cast<double>(n);
}

// Fills the simulated results, work counters and the fingerprint from the
// drained stack. `from` is the simulated start of the measured phase.
void observe(Stack& s, SimTime from, RepResult& r) {
  auto& delays = s.delays();
  r.published = s.hub->publications_sent();
  r.completed = delays.publications_completed();
  r.notifications = delays.notifications();
  r.sim_span_s = to_seconds(s.simulator.now() - from);
  Fingerprint fp;
  fp.add(r.published);
  fp.add(r.completed);
  fp.add(r.notifications);
  fp.add(r.sim_events);
  if (delays.delays_ms().count() > 0) {
    const auto p = delays.delays_ms().percentiles({0, 50, 90, 99, 100});
    r.delay_p50_ms = p[1];
    r.delay_p99_ms = p[3];
    r.delay_max_ms = p[4];
    for (double v : p) fp.add(v);
    r.late_ratio = share_above(delays.delays_ms(), kLateMs);
  }
  const net::NetworkStats& ns = s.network->stats();
  r.net_messages = ns.messages_sent;
  r.net_bytes = ns.bytes_sent;
  for (std::uint64_t v :
       {ns.messages_sent, ns.messages_delivered, ns.messages_dropped,
        ns.messages_lost, ns.messages_duplicated, ns.messages_reordered,
        ns.messages_corrupted, ns.messages_retransmitted,
        ns.messages_partitioned, ns.bytes_sent}) {
    fp.add(v);
  }
  std::vector<HostId> hosts = s.pool->active_hosts();
  std::sort(hosts.begin(), hosts.end());
  for (HostId h : hosts) {
    const double busy = s.pool->host(h).busy_core_us();
    r.busy_core_s += busy * 1e-6;
    fp.add(h.value());
    fp.add(busy);
  }
  for (const auto& sample : s.pool->count_history()) {
    fp.add(static_cast<std::uint64_t>(sample.time.count()));
    fp.add(static_cast<std::uint64_t>(sample.count));
    if (sample.time >= from) {
      r.peak_hosts = std::max(r.peak_hosts, sample.count - 1 - kIoHosts);
    }
  }
  r.peak_hosts = std::max(r.peak_hosts, s.worker_hosts.size());
  r.host_s = worker_host_seconds(*s.pool, from, s.simulator.now());
  r.coord_ops = s.coord->committed_ops();
  if (s.manager) {
    r.plans_executed = s.manager->plans_executed();
    for (const auto& m : s.manager->migrations()) {
      ++r.migrations;
      r.bytes_shipped += m.bytes_shipped();
      r.interruption_ms += to_millis(m.interruption());
      fp.add(m.slice.value());
      fp.add(m.dst.value());
      fp.add(static_cast<std::uint64_t>(m.completed.count()));
    }
  }
  fp.add(r.migrations);
  r.fingerprint = fp.value();
}

// Compares one delivered subscriber list with the expected one (sorted).
void audit_one(const pubsub::DelayCollector& delays, PublicationId pub,
               std::vector<SubscriberId> expected, RepResult& r) {
  const auto& records = delays.audit();
  const auto it = records.find(pub);
  if (it == records.end()) {
    ++r.missing;
    return;
  }
  if (it->second.deliveries > 1) {
    ++r.duplicated;
    return;
  }
  std::vector<SubscriberId> got = it->second.subscribers;
  std::sort(got.begin(), got.end());
  std::sort(expected.begin(), expected.end());
  if (got != expected) ++r.mismatched;
}

void finish_audit(RepResult& r) {
  r.failed = r.missing + r.duplicated + r.mismatched + r.refused;
}

// ---- oracle workloads (steady_oracle, elastic_trace) -------------------------

RepResult run_oracle(bool elastic, const RepOptions& o) {
  Tracer* tracer = o.tracer;
  RepResult r;
  r.threads = o.threads == 0 ? 1 : o.threads;

  const auto setup_t0 = Clock::now();
  std::optional<Scope> phase{std::in_place, tracer, Layer::kSetup};
  workload::OracleWorkload wl{workload::OracleParams{
      .dimensions = kDims,
      .total_subscriptions = kOracleSubs,
      .matching_rate = kMatchingRate,
      .m_slices = 16,
      .seed = o.seed}};
  StackConfig config;
  config.with_manager = elastic;
  config.worker_hosts = elastic ? 1 : kSteadyWorkers;
  config.max_worker_hosts = elastic ? kElasticMaxWorkers : kSteadyWorkers;
  config.engine.probe_interval = seconds(5);
  config.engine.worker_threads = r.threads;
  config.hub.source_slices = 4;
  config.hub.ap_slices = 8;
  config.hub.m_slices = 16;
  config.hub.ep_slices = 8;
  config.hub.sink_slices = 4;
  config.hub.cost = config.engine.cost;
  config.hub.matcher_factory = observed(
      [&wl, cost = config.engine.cost](std::size_t i) {
        return wl.make_matcher(cost, i);
      },
      tracer, Layer::kOracleMatch);
  Stack s{config};
  if (elastic && tracer != nullptr) {
    // Same call as the manager's default path, inside a span.
    elastic::Manager* manager = s.manager.get();
    manager->set_policy([manager, tracer](const elastic::SystemView& view) {
      const Scope scope{tracer, Layer::kEvaluate};
      return manager->enforcer().evaluate(view);
    });
  }
  store(s, tracer, kOracleSubs, [&wl](std::size_t i) {
    return filter::AnySubscription{wl.subscription(i)};
  });
  phase.reset();
  r.setup_s = since(setup_t0);
  if (!o.measure) return r;

  std::shared_ptr<const workload::RateSchedule> schedule;
  SimDuration span{};
  if (elastic) {
    workload::FrankfurtTrace::Config trace;
    trace.start_hour = kTraceStartHour;
    trace.end_hour = kTraceEndHour;
    trace.speedup = 20.0;
    trace.peak_rate = 190.0;
    trace.noise = 0.10;  // fixed trace (noise seed 7, arrivals kTraceArrivalSeed)
    schedule = std::make_shared<workload::FrankfurtTrace>(trace);
    span = schedule->duration() + seconds(kTraceTailS);
  } else {
    // Half of the 12-host maximum (Fig. 6): the bottleneck M host runs
    // ceil(16/6) = 3 slices of 6250 subscriptions on 8 cores.
    const double per_pub_core_us = 3.0 * (kOracleSubs / 16.0) *
                                   config.engine.cost.aspe_match_units(kDims);
    schedule = std::make_shared<workload::ConstantRate>(
        8.0 * 1e6 / per_pub_core_us / 2.0, seconds(kSteadyPublishS));
    span = schedule->duration();
  }

  s.delays().enable_audit();
  const SimTime from = s.simulator.now();
  workload::PublicationDriver driver{
      s.simulator, schedule,
      [&] {
        filter::AnyPublication pub = [&] {
          const Scope scope{tracer, Layer::kGen};
          return filter::AnyPublication{wl.next_publication()};
        }();
        const Scope scope{tracer, Layer::kInject};
        s.hub->publish(std::move(pub));
      },
      elastic ? kTraceArrivalSeed : o.seed ^ 0x5bf0'3635'dcf9'8e6bULL};

  const Usage usage0 = Usage::now();
  const auto measured_t0 = Clock::now();
  phase.emplace(tracer, Layer::kMeasured);
  driver.start();
  r.sim_events = run_to(s, tracer, from + span);
  driver.stop();
  r.sim_events += drain(s, tracer);
  phase.reset();
  r.measured_s = since(measured_t0);
  Usage::now().store_since(usage0, r);

  observe(s, from, r);
  if (o.audit) {
    // Exactly-once audit against the oracle's ground truth (publication
    // ids are dense from 1), as harness::verify_exactly_once does.
    const auto oracle = wl.oracle();
    for (std::uint64_t id = 1; id <= r.published; ++id) {
      std::vector<SubscriberId> expected;
      for (std::uint64_t index : oracle->matches(PublicationId{id})) {
        expected.push_back(oracle->subscriber_of(index));
      }
      audit_one(s.delays(), PublicationId{id}, std::move(expected), r);
    }
    r.attempted = r.published;
  }
  finish_audit(r);
  return r;
}

// ---- churn_real --------------------------------------------------------------

// Subscribe/unsubscribe stream over one scheme's fringe: subscribe-biased
// below the target size, unsubscribe-biased above it; unsubscribes pick
// uniformly among the live fringe subscriptions at least kFringeMinAge old
// (a client does not cancel a subscription before it could be stored).
struct Fringe {
  struct Entry {
    std::uint64_t index;
    SimTime since;
    filter::Subscription sub;  // plain original, for the audit
  };
  std::vector<Entry> live;  // subscription order
  std::uint64_t next = 0;
};
constexpr SimDuration kFringeMinAge = seconds(1);

// A fringe subscription never matches a regular publication: its predicates
// are a regular subscription's shifted past the [0, 1) attribute domain to
// [2, 3). It still costs what a stored subscription costs (state, ASPE
// scans, index rebuilds), but keeps the expected subscriber set of every
// regular publication independent of when a churn op lands relative to it.
// The audit's probe publications, drawn from [2, 3), do match it.
filter::Subscription cold(filter::Subscription sub) {
  for (filter::Range& p : sub.predicates) {
    p.low += 2.0;
    p.high += 2.0;
  }
  return sub;
}

RepResult run_churn(const RepOptions& o) {
  Tracer* tracer = o.tracer;
  RepResult r;
  const std::size_t nproc =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  r.threads = o.threads == 0 ? std::min(nproc, kChurnMaxThreads) : o.threads;

  const auto setup_t0 = Clock::now();
  std::optional<Scope> phase{std::in_place, tracer, Layer::kSetup};
  // Client side: plain originals (the audit's reference) and the ASPE key.
  workload::PlainWorkload plain_subs_gen{{kDims, kMatchingRate, o.seed * 4 + 1}};
  workload::PlainWorkload enc_subs_gen{{kDims, kMatchingRate, o.seed * 4 + 2}};
  workload::PlainWorkload fringe_gen{{kDims, kMatchingRate, o.seed * 4 + 3}};
  Rng key_rng{o.seed * 0xd6e8feb86659fd93ULL + 5};
  const filter::AspeKey key = filter::AspeKey::generate(kDims, key_rng);
  filter::AspeEncryptor encryptor{key, Rng{o.seed * 0xa0761d6478bd642fULL + 6}};

  StackConfig config;
  config.worker_hosts = kChurnWorkers;
  config.max_worker_hosts = kChurnWorkers;
  config.engine.probe_interval = seconds(5);
  config.engine.worker_threads = r.threads;
  config.hub.source_slices = 4;
  config.hub.ap_slices = 8;
  config.hub.ep_slices = 8;
  config.hub.sink_slices = 4;
  config.hub.cost = config.engine.cost;
  pubsub::MatcherSchemeSpec aspe;
  aspe.op_name = "M-aspe";
  aspe.slices = kChurnSlices;
  aspe.encrypted = true;
  aspe.factory = observed(
      [cost = config.engine.cost](std::size_t) {
        return std::make_unique<filter::AspeMatcher>(cost);
      },
      tracer, Layer::kAspeMatch);
  pubsub::MatcherSchemeSpec plain;
  plain.op_name = "M-plain";
  plain.slices = kChurnSlices;
  plain.encrypted = false;
  plain.factory = observed(
      [cost = config.engine.cost](std::size_t) {
        return std::make_unique<filter::IntervalIndexMatcher>(cost);
      },
      tracer, Layer::kIntervalMatch);
  config.hub.schemes = {aspe, plain};
  Stack s{config};

  std::vector<filter::Subscription> plain_ref(kChurnPlainSubs);
  std::vector<filter::Subscription> enc_ref(kChurnAspeSubs);
  store(s, tracer, kChurnPlainSubs + kChurnAspeSubs, [&](std::size_t i) {
          if (i < kChurnPlainSubs) {
            filter::Subscription sub = plain_subs_gen.subscription(i);
            sub.id = SubscriptionId{i + 1};
            sub.subscriber = SubscriberId{i + 1};
            plain_ref[i] = sub;
            return filter::AnySubscription{std::move(sub)};
          }
          const std::size_t j = i - kChurnPlainSubs;
          filter::Subscription sub = enc_subs_gen.subscription(j);
          sub.id = SubscriptionId{kEncBase + j};
          sub.subscriber = SubscriberId{kEncBase + j};
          enc_ref[j] = sub;
          return filter::AnySubscription{encryptor.encrypt(sub)};
        });
  phase.reset();
  r.setup_s = since(setup_t0);
  if (!o.measure) return r;

  // Publications alternate encrypted (odd ids) and plain (even ids); one id
  // space, so EP and the sink never confuse the two schemes' events.
  Rng pub_rng{o.seed * 0xbf58476d1ce4e5b9ULL + 7};
  std::vector<filter::Publication> originals;
  auto publish = [&](bool probe) {
    filter::AnyPublication pub = [&] {
      const Scope scope{tracer, Layer::kGen};
      filter::Publication p;
      p.id = PublicationId{originals.size() + 1};
      for (std::size_t a = 0; a < kDims; ++a) {
        p.attributes.push_back((probe ? 2.0 : 0.0) + pub_rng.next_double());
      }
      originals.push_back(p);
      if (p.id.value() % 2 == 1) {
        filter::EncryptedPublication e = encryptor.encrypt(p);
        e.id = p.id;
        return filter::AnyPublication{std::move(e)};
      }
      return filter::AnyPublication{std::move(p)};
    }();
    const Scope scope{tracer, Layer::kInject};
    s.hub->publish(std::move(pub));
  };

  Rng churn_rng{o.seed * 0x94d049bb133111ebULL + 8};
  Fringe fringes[2];  // [0] plain, [1] encrypted
  std::uint64_t churn_ops = 0;
  auto churn = [&] {
    ++churn_ops;
    const bool encrypted = churn_rng.next_below(2) == 1;
    Fringe& f = fringes[encrypted ? 1 : 0];
    const std::uint64_t base = encrypted ? kEncFringeBase : kPlainFringeBase;
    const double subscribe_p = f.live.size() < kChurnFringe ? 0.7 : 0.3;
    const SimTime now = s.simulator.now();
    const auto eligible = static_cast<std::size_t>(
        std::partition_point(f.live.begin(), f.live.end(),
                             [&](const Fringe::Entry& e) {
                               return e.since + kFringeMinAge <= now;
                             }) -
        f.live.begin());
    if (eligible == 0 || churn_rng.next_double() < subscribe_p) {
      const std::uint64_t index = f.next++;
      filter::AnySubscription sub = [&] {
        const Scope scope{tracer, Layer::kGen};
        filter::Subscription c = cold(fringe_gen.subscription(
            index * 2 + (encrypted ? 1 : 0)));
        c.id = SubscriptionId{base + index};
        c.subscriber = SubscriberId{base + index};
        f.live.push_back({index, now, c});
        if (encrypted) return filter::AnySubscription{encryptor.encrypt(c)};
        return filter::AnySubscription{std::move(c)};
      }();
      const Scope scope{tracer, Layer::kInject};
      s.hub->subscribe(std::move(sub));
      return;
    }
    const std::size_t pos = churn_rng.next_below(eligible);
    const std::uint64_t index = f.live[pos].index;
    f.live.erase(f.live.begin() + static_cast<std::ptrdiff_t>(pos));
    const Scope scope{tracer, Layer::kInject};
    s.hub->unsubscribe(SubscriptionId{base + index}, encrypted);
  };

  s.delays().enable_audit();
  const SimTime from = s.simulator.now();
  const SimDuration span = seconds(kChurnPublishS);
  workload::PublicationDriver pub_driver{
      s.simulator,
      std::make_shared<workload::ConstantRate>(kChurnPubRate, span),
      [&] { publish(false); }, o.seed ^ 0x5bf0'3635'dcf9'8e6bULL};
  workload::PublicationDriver churn_driver{
      s.simulator,
      std::make_shared<workload::ConstantRate>(kChurnOpsRate, span), churn,
      o.seed ^ 0x2545'f491'4f6c'dd1dULL};

  const Usage usage0 = Usage::now();
  const auto measured_t0 = Clock::now();
  phase.emplace(tracer, Layer::kMeasured);
  pub_driver.start();
  churn_driver.start();
  r.sim_events = run_to(s, tracer, from + span);
  pub_driver.stop();
  churn_driver.stop();
  r.sim_events += drain(s, tracer);
  phase.reset();
  r.measured_s = since(measured_t0);
  Usage::now().store_since(usage0, r);

  // Let the last churn ops land before counting the stores.
  run_to(s, nullptr, s.simulator.now() + seconds(2));
  observe(s, from, r);
  if (o.audit) {
    // Probe the write paths (untimed, after the fingerprint): publications
    // drawn from the fringe's [2, 3) domain must reach exactly the live
    // fringe subscriptions they match, so a subscription the index never
    // took in, or one it still holds after its unsubscribe, shows up as a
    // mismatch.
    const SimTime probe_from = s.simulator.now();
    for (std::size_t k = 1; k <= kChurnProbes; ++k) {
      s.simulator.schedule_at(probe_from + kChurnProbeGap * static_cast<std::int64_t>(k),
                              [&publish] { publish(true); });
    }
    run_to(s, nullptr,
           probe_from + kChurnProbeGap * static_cast<std::int64_t>(kChurnProbes + 1));
    drain(s, nullptr);

    // Exactly-once audit against an independent brute-force reference over
    // the plain originals: the base population and the fringe live at the
    // end (which only probes can match).
    for (const filter::Publication& p : originals) {
      const bool encrypted = p.id.value() % 2 == 1;
      std::vector<SubscriberId> expected;
      for (const filter::Subscription& sub : encrypted ? enc_ref : plain_ref) {
        if (sub.matches(p)) expected.push_back(sub.subscriber);
      }
      for (const Fringe::Entry& e : fringes[encrypted ? 1 : 0].live) {
        if (e.sub.matches(p)) expected.push_back(e.sub.subscriber);
      }
      audit_one(s.delays(), p.id, std::move(expected), r);
    }
    // Every subscribe and unsubscribe must have been applied: the M slices
    // hold exactly the base population plus the live fringe.
    const std::size_t expected_store = kChurnPlainSubs + kChurnAspeSubs +
                                       fringes[0].live.size() +
                                       fringes[1].live.size();
    const std::size_t stored = s.hub->stored_subscriptions();
    r.refused = stored > expected_store ? stored - expected_store
                                        : expected_store - stored;
    r.attempted = originals.size() + churn_ops;
  }
  finish_audit(r);
  return r;
}

}  // namespace

bool parse_workload(const std::string& name, Workload& out) {
  if (name == "steady_oracle") {
    out = Workload::kSteadyOracle;
  } else if (name == "elastic_trace") {
    out = Workload::kElasticTrace;
  } else if (name == "churn_real") {
    out = Workload::kChurnReal;
  } else {
    return false;
  }
  return true;
}

RepResult run_rep(Workload workload, const RepOptions& options) {
  switch (workload) {
    case Workload::kSteadyOracle: return run_oracle(false, options);
    case Workload::kElasticTrace: return run_oracle(true, options);
    case Workload::kChurnReal: return run_churn(options);
  }
  throw std::logic_error{"perfbench: unknown workload"};
}

}  // namespace perfbench
