// Chaos harness tests: seeded fault schedules injected into a live testbed
// under publication load. The cluster must heal itself — zero manual
// recover_slice calls — and the match oracle must confirm exactly-once
// delivery of every publication afterwards.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/det.hpp"
#include "elastic/threshold_policy.hpp"
#include "engine/migration_strategy.hpp"
#include "harness/chaos.hpp"
#include "workload/schedule.hpp"

namespace esh::harness {
namespace {

TestbedConfig chaos_config() {
  TestbedConfig config;
  config.worker_hosts = 3;
  config.io_hosts = 2;
  config.workload.dimensions = 4;
  config.workload.total_subscriptions = 1000;
  config.workload.matching_rate = 0.02;
  config.workload.m_slices = 3;
  config.source_slices = 2;
  config.ap_slices = 3;
  config.ep_slices = 3;
  config.sink_slices = 2;
  config.engine.flush_interval = millis(10);
  config.engine.control_tick = millis(5);
  config.engine.probe_interval = millis(100);
  config.engine.checkpoints.enabled = true;
  config.engine.checkpoints.interval = millis(500);
  config.iaas.max_hosts = 6;  // 3 workers + 3 spares (manager/io on top)
  config.iaas.boot_delay = millis(500);
  config.with_manager = true;
  config.manager.recovery.enabled = true;
  config.manager.recovery.detector =
      elastic::FailureDetectorConfig{millis(100), 2, 4};
  config.manager.recovery.attempt_timeout = seconds(5);
  config.seed = 11;
  return config;
}

void await_heal(Testbed& bed, elastic::Manager& manager, std::size_t crashes) {
  ASSERT_TRUE(bed.run_until(
      [&] {
        return manager.recoveries().size() >= crashes &&
               !manager.recovery_in_progress();
      },
      seconds(60)))
      << "recovery did not complete (got " << manager.recoveries().size()
      << "/" << crashes << " reports)";
}

void await_drain(Testbed& bed) {
  ASSERT_TRUE(bed.run_until(
      [&] {
        return bed.delays().publications_completed() >=
               bed.hub().publications_sent();
      },
      seconds(120)))
      << "only " << bed.delays().publications_completed() << " of "
      << bed.hub().publications_sent() << " publications completed";
}

TEST(FaultScheduleTest, RandomIsSeededBoundedAndDistinct) {
  const SimTime start = seconds(2);
  const SimTime end = seconds(10);
  const auto a = FaultSchedule::random(7, start, end, 5, 3, true, true);
  const auto b = FaultSchedule::random(7, start, end, 5, 3, true, true);
  const auto c = FaultSchedule::random(8, start, end, 5, 3, true, true);

  ASSERT_EQ(a.crashes.size(), 3u);
  ASSERT_EQ(a.coord_failovers.size(), 1u);
  ASSERT_EQ(a.manager_failovers.size(), 1u);
  for (std::size_t i = 0; i < a.crashes.size(); ++i) {
    EXPECT_EQ(a.crashes[i].at, b.crashes[i].at);
    EXPECT_EQ(a.crashes[i].worker_index, b.crashes[i].worker_index);
    EXPECT_GE(a.crashes[i].at, start);
    EXPECT_LT(a.crashes[i].at, end);
    EXPECT_LT(a.crashes[i].worker_index, 5u);
    // Distinct victims.
    for (std::size_t j = i + 1; j < a.crashes.size(); ++j) {
      EXPECT_NE(a.crashes[i].worker_index, a.crashes[j].worker_index);
    }
  }
  // A different seed perturbs the schedule.
  const bool differs =
      a.crashes[0].at != c.crashes[0].at ||
      a.crashes[0].worker_index != c.crashes[0].worker_index ||
      a.crashes[1].at != c.crashes[1].at;
  EXPECT_TRUE(differs);

  EXPECT_THROW(FaultSchedule::random(1, start, end, 2, 3),
               std::invalid_argument);
  EXPECT_THROW(FaultSchedule::random(1, end, end, 2, 1),
               std::invalid_argument);
}

// The acceptance scenario: a worker crashes under live publication load
// (with a lossy network in the run-up to the crash); the manager detects,
// quarantines and re-places the lost slices without any manual
// recover_slice call, and the oracle confirms exactly-once delivery.
TEST(ChaosTest, WorkerCrashUnderLoadHealsWithExactlyOnceDelivery) {
  Testbed bed{chaos_config()};
  bed.manager()->set_enforcement(false);
  bed.delays().enable_audit();
  bed.store_subscriptions(1000);

  auto driver =
      bed.drive(std::make_shared<workload::ConstantRate>(200.0, seconds(6)));

  FaultSchedule schedule;
  schedule.crashes.push_back(
      {bed.simulator().now() + seconds(2), 1, 0.1, millis(300)});
  ChaosRunner chaos{bed, schedule};
  chaos.arm();

  bed.run_for(seconds(6) + millis(10));
  driver->stop();

  await_heal(bed, *bed.manager(), 1);
  await_drain(bed);

  const auto& recoveries = bed.manager()->recoveries();
  ASSERT_EQ(recoveries.size(), 1u);
  const auto& report = recoveries.front();
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.host, chaos.crashed().front());
  EXPECT_FALSE(report.slices_lost.empty());
  EXPECT_EQ(report.slices_recovered, report.slices_lost.size());
  EXPECT_GE(report.quarantined, report.detected);
  EXPECT_GE(report.placed, report.quarantined);
  EXPECT_GE(report.recovered, report.placed);
  EXPECT_GT(report.mttr(), SimDuration::zero());

  // The crashed host left the managed set; the network saw real loss.
  const auto managed = bed.manager()->managed_hosts();
  EXPECT_EQ(std::count(managed.begin(), managed.end(), report.host), 0);
  EXPECT_GT(bed.network().stats().messages_lost, 0u);

  const auto audit = verify_exactly_once(bed);
  EXPECT_GT(audit.published, 1000u);
  EXPECT_TRUE(audit.exactly_once())
      << "published=" << audit.published << " missing=" << audit.missing
      << " duplicated=" << audit.duplicated
      << " mismatched=" << audit.mismatched;
}

// Regression: PR 5 pinned its chaos leg to FaultSchedule::random seed 2
// because seeds 17 and 1 wedged the drain identically at every thread
// count. The wedge was a co-recovery renumbering bug, not schedule
// sensitivity: those seeds crash a host carrying both a multi-input slice
// and one of its consumers. The multi-input slice regenerates its
// post-checkpoint output with fresh sequence numbers, while the co-dead
// consumer restored channel watermarks counting the OLD numbering — so the
// regenerated suffix was silently deduplicated and its publications never
// completed. The engine now records per-consumer regenerated bases at
// fail_host time and rewinds co-recovering consumers' restored watermarks
// below them (Engine::register_recovery_rebases / clamp_to_rebases), which
// makes the wedge impossible. These seeds must drain exactly-once forever.
TEST(ChaosTest, FormerlyWedgingSeedsDrainExactlyOnce) {
  for (const std::uint64_t seed : {17u, 1u}) {
    auto config = chaos_config();
    config.workload.total_subscriptions = 1200;
    Testbed bed{config};
    bed.manager()->set_enforcement(false);
    bed.delays().enable_audit();
    bed.store_subscriptions(1200);
    auto driver =
        bed.drive(std::make_shared<workload::ConstantRate>(200.0, seconds(6)));
    const FaultSchedule schedule = FaultSchedule::random(
        seed, bed.simulator().now() + seconds(1),
        bed.simulator().now() + seconds(4), bed.worker_hosts().size(), 1);
    ChaosRunner chaos{bed, schedule};
    chaos.arm();
    bed.run_for(seconds(6) + millis(10));
    driver->stop();

    await_heal(bed, *bed.manager(), 1);
    await_drain(bed);
    bed.run_for(seconds(2));

    const auto audit = verify_exactly_once(bed);
    EXPECT_TRUE(audit.exactly_once())
        << "seed " << seed << ": published=" << audit.published
        << " missing=" << audit.missing << " duplicated=" << audit.duplicated
        << " mismatched=" << audit.mismatched;
  }
}

// When no survivor may absorb the lost slices (placement cap zero), the
// recovery must allocate replacement hosts from the IaaS pool and replay
// onto them once booted.
TEST(ChaosTest, AllocatesReplacementHostsWhenSurvivorsCannotAbsorb) {
  auto config = chaos_config();
  config.manager.policy.placement_cap = 0.0;
  Testbed bed{config};
  bed.manager()->set_enforcement(false);
  bed.delays().enable_audit();
  bed.store_subscriptions(1000);

  auto driver =
      bed.drive(std::make_shared<workload::ConstantRate>(150.0, seconds(6)));

  FaultSchedule schedule;
  schedule.crashes.push_back({bed.simulator().now() + seconds(2), 0, 0.0, {}});
  ChaosRunner chaos{bed, schedule};
  chaos.arm();

  bed.run_for(seconds(6) + millis(10));
  driver->stop();

  await_heal(bed, *bed.manager(), 1);
  await_drain(bed);

  ASSERT_EQ(bed.manager()->recoveries().size(), 1u);
  const auto& report = bed.manager()->recoveries().front();
  EXPECT_TRUE(report.complete);
  ASSERT_FALSE(report.replacement_hosts.empty());
  // Boot time is part of the MTTR when replacements are needed.
  EXPECT_GE(report.mttr(), millis(500));
  const auto managed = bed.manager()->managed_hosts();
  for (HostId host : report.replacement_hosts) {
    EXPECT_EQ(std::count(managed.begin(), managed.end(), host), 1)
        << "replacement host " << host << " not managed";
    EXPECT_TRUE(bed.engine().has_host(host));
  }

  const auto audit = verify_exactly_once(bed);
  EXPECT_TRUE(audit.exactly_once())
      << "published=" << audit.published << " missing=" << audit.missing
      << " duplicated=" << audit.duplicated
      << " mismatched=" << audit.mismatched;
}

// A coordination leader failover right after the crash stalls the
// manager's persistence writes but must not block recovery; the dead
// verdict still lands in the tree once the new leader commits.
TEST(ChaosTest, CoordFailoverDuringRecoveryStillHeals) {
  Testbed bed{chaos_config()};
  bed.manager()->set_enforcement(false);
  bed.delays().enable_audit();
  bed.store_subscriptions(1000);

  auto driver =
      bed.drive(std::make_shared<workload::ConstantRate>(150.0, seconds(5)));

  FaultSchedule schedule;
  const SimTime crash_at = bed.simulator().now() + seconds(2);
  schedule.crashes.push_back({crash_at, 2, 0.0, {}});
  schedule.coord_failovers.push_back({crash_at + millis(150)});
  ChaosRunner chaos{bed, schedule};
  chaos.arm();

  bed.run_for(seconds(5) + millis(10));
  driver->stop();

  await_heal(bed, *bed.manager(), 1);
  await_drain(bed);

  ASSERT_EQ(bed.manager()->recoveries().size(), 1u);
  const auto& report = bed.manager()->recoveries().front();
  EXPECT_TRUE(report.complete);

  // The verdict write survived the failover (committed by the new leader).
  const std::string health_path =
      "/estreamhub/health/" + std::to_string(report.host.value());
  ASSERT_TRUE(bed.run_until(
      [&] { return bed.coord().node_exists(health_path); }, seconds(10)));
  EXPECT_EQ(bed.coord().read(health_path), "dead");

  const auto audit = verify_exactly_once(bed);
  EXPECT_TRUE(audit.exactly_once())
      << "published=" << audit.published << " missing=" << audit.missing
      << " duplicated=" << audit.duplicated
      << " mismatched=" << audit.mismatched;
}

// Manager failover followed by a worker crash: the promoted standby must
// inherit the fleet from the coordination tree and run the recovery itself.
TEST(ChaosTest, PromotedStandbyHealsCrashAfterManagerFailover) {
  auto config = chaos_config();
  config.manager.use_leader_election = true;
  Testbed bed{config};
  bed.manager()->set_enforcement(false);
  bed.delays().enable_audit();

  elastic::Manager standby{bed.simulator(), bed.network(), bed.engine(),
                           bed.pool(),      bed.coord(),   bed.manager_host(),
                           config.manager};
  standby.set_enforcement(false);
  standby.enter_standby();

  bed.store_subscriptions(1000);
  auto driver =
      bed.drive(std::make_shared<workload::ConstantRate>(150.0, seconds(6)));

  FaultSchedule schedule;
  const SimTime t0 = bed.simulator().now();
  schedule.manager_failovers.push_back({t0 + seconds(1)});
  schedule.crashes.push_back({t0 + seconds(2), 0, 0.0, {}});
  ChaosRunner chaos{bed, schedule};
  chaos.arm();

  bed.run_for(seconds(6) + millis(10));
  driver->stop();

  await_heal(bed, standby, 1);
  await_drain(bed);

  EXPECT_FALSE(bed.manager()->is_active());
  EXPECT_TRUE(standby.is_active());
  EXPECT_TRUE(bed.manager()->recoveries().empty());
  ASSERT_EQ(standby.recoveries().size(), 1u);
  EXPECT_TRUE(standby.recoveries().front().complete);
  EXPECT_EQ(standby.recoveries().front().host, chaos.crashed().front());

  const auto audit = verify_exactly_once(bed);
  EXPECT_TRUE(audit.exactly_once())
      << "published=" << audit.published << " missing=" << audit.missing
      << " duplicated=" << audit.duplicated
      << " mismatched=" << audit.mismatched;
}

// The leader resigns and stays out long enough to have convicted every
// host it no longer hears, then rejoins and is promoted again when its
// successor resigns: it must watch the fleet afresh and recover the next
// worker crash itself.
TEST(ChaosTest, RePromotedManagerHealsCrash) {
  auto config = chaos_config();
  config.manager.use_leader_election = true;
  Testbed bed{config};
  elastic::Manager& first = *bed.manager();
  first.set_enforcement(false);
  bed.delays().enable_audit();

  elastic::Manager second{bed.simulator(), bed.network(), bed.engine(),
                          bed.pool(),      bed.coord(),   bed.manager_host(),
                          config.manager};
  second.set_enforcement(false);
  second.enter_standby();
  bed.store_subscriptions(1000);

  first.resign();
  // Twenty probe intervals: far past dead_after, were anyone still judging.
  bed.run_for(seconds(2));
  ASSERT_TRUE(second.is_active());
  EXPECT_TRUE(first.failure_detector()->dead_hosts().empty());
  first.enter_standby();
  second.resign();
  ASSERT_TRUE(bed.run_until([&] { return first.is_active(); }, seconds(5)));

  auto driver =
      bed.drive(std::make_shared<workload::ConstantRate>(150.0, seconds(4)));
  FaultSchedule schedule;
  schedule.crashes.push_back(
      {bed.simulator().now() + seconds(1), 0, 0.0, {}});
  ChaosRunner chaos{bed, schedule};
  chaos.arm();
  bed.run_for(seconds(4) + millis(10));
  driver->stop();

  await_heal(bed, first, 1);
  await_drain(bed);

  EXPECT_TRUE(first.is_active());
  EXPECT_TRUE(second.recoveries().empty());
  ASSERT_EQ(first.recoveries().size(), 1u);
  EXPECT_TRUE(first.recoveries().front().complete);
  EXPECT_EQ(first.recoveries().front().host, chaos.crashed().front());

  const auto audit = verify_exactly_once(bed);
  EXPECT_TRUE(audit.exactly_once())
      << "published=" << audit.published << " missing=" << audit.missing
      << " duplicated=" << audit.duplicated
      << " mismatched=" << audit.mismatched;
}

// ---- combined adversarial schedule -----------------------------------------

// Everything downstream consumers observe, plus the injection and reliable
// channel counters: two runs agreeing on this differ in wall-clock only.
struct ChaosFingerprint {
  std::uint64_t notifications = 0;
  std::uint64_t completed = 0;
  std::vector<double> percentiles;
  std::vector<std::tuple<std::uint64_t, std::uint32_t,
                         std::vector<std::uint64_t>>>
      audit;
  std::uint64_t net_sent = 0, net_lost = 0, net_duplicated = 0,
                net_reordered = 0, net_partitioned = 0, net_retransmitted = 0;
  std::uint64_t reliable_delivered = 0, reliable_retransmits = 0,
                reliable_dup_dropped = 0;
  std::size_t recoveries = 0, drains_completed = 0, drains_aborted = 0;
  std::uint64_t splits = 0, merges = 0;

  bool operator==(const ChaosFingerprint&) const = default;
};

ChaosFingerprint chaos_fingerprint(Testbed& bed) {
  ChaosFingerprint fp;
  fp.notifications = bed.delays().notifications();
  fp.completed = bed.delays().publications_completed();
  fp.percentiles = bed.delays().delays_ms().percentiles({0, 50, 90, 99, 100});
  for (const PublicationId pub : sorted_keys(bed.delays().audit())) {
    const auto& entry = bed.delays().audit().at(pub);
    std::vector<std::uint64_t> subscribers;
    subscribers.reserve(entry.subscribers.size());
    for (const SubscriberId s : entry.subscribers) {
      subscribers.push_back(s.value());
    }
    fp.audit.emplace_back(pub.value(), entry.deliveries,
                          std::move(subscribers));
  }
  const net::NetworkStats& net = bed.network().stats();
  fp.net_sent = net.messages_sent;
  fp.net_lost = net.messages_lost;
  fp.net_duplicated = net.messages_duplicated;
  fp.net_reordered = net.messages_reordered;
  fp.net_partitioned = net.messages_partitioned;
  fp.net_retransmitted = net.messages_retransmitted;
  const net::ReliableStats reliable = bed.engine().reliable_stats();
  fp.reliable_delivered = reliable.delivered;
  fp.reliable_retransmits = reliable.retransmits;
  fp.reliable_dup_dropped = reliable.duplicates_dropped;
  fp.recoveries = bed.manager()->recoveries().size();
  for (const elastic::DrainReport& drain : bed.manager()->drains()) {
    if (drain.complete) ++fp.drains_completed;
    if (drain.aborted) ++fp.drains_aborted;
  }
  fp.splits = bed.engine().splits_completed();
  fp.merges = bed.engine().merges_completed();
  return fp;
}

// The PR's acceptance scenario: a crash with a lossy run-up, a partition
// that outlasts the conviction window, a duplicate storm, a reorder storm
// and one gray host — all at once, against reliable control channels, a
// latency-aware detector and proactive draining. The oracle must confirm
// exactly-once delivery and the entire outcome must be byte-identical at
// every worker thread count.
TEST(ChaosTest, CombinedScheduleExactlyOnceAndByteIdenticalAcrossThreads) {
  auto run = [](std::size_t threads) {
    auto config = chaos_config();
    config.worker_hosts = 4;
    config.iaas.max_hosts = 8;
    config.engine.worker_threads = threads;
    config.engine.reliable_control = true;
    config.engine.reliable.initial_rto = millis(50);
    // Latency-aware suspicion: the gray host's x4 NIC slowdown must be
    // caught by the delay EWMA, never by silence.
    config.manager.recovery.detector.latency_suspect_factor = 2.0;
    config.manager.recovery.drain_suspects = true;
    config.manager.recovery.drain_after = millis(400);

    Testbed bed{config};
    bed.manager()->set_enforcement(false);
    bed.delays().enable_audit();
    bed.store_subscriptions(1000);
    auto driver =
        bed.drive(std::make_shared<workload::ConstantRate>(150.0, seconds(7)));

    const SimTime t0 = bed.simulator().now();
    FaultSchedule schedule;
    // Worker 0 goes gray at 1s and stays degraded to the end: drained.
    schedule.gray_degrades.push_back({t0 + seconds(1), {}, 0, 4.0});
    // Worker 1 crashes at 3s after a 1%-loss run-up: recovered.
    schedule.crashes.push_back({t0 + seconds(3), 1, 0.01, millis(500)});
    // Worker 2 is cut off for 1.5s from 4.5s — longer than the conviction
    // window, so it is declared dead and healing cannot resurrect it.
    schedule.partitions.push_back({t0 + millis(4500), millis(1500), {2}});
    // Global storms overlap the crash and the partition.
    schedule.duplicate_storms.push_back({t0 + millis(2500), seconds(2), 0.05});
    schedule.reorder_storms.push_back(
        {t0 + millis(4000), seconds(2), 0.05, millis(1)});
    ChaosRunner chaos{bed, schedule};
    chaos.arm();

    bed.run_for(seconds(7) + millis(10));
    driver->stop();

    // Two dead hosts (crash + partition) must be recovered, the gray host
    // drained; then the stream must fully drain.
    await_heal(bed, *bed.manager(), 2);
    await_drain(bed);
    bed.run_for(seconds(2));

    EXPECT_GE(bed.manager()->recoveries().size(), 2u) << threads << " threads";
    for (const auto& report : bed.manager()->recoveries()) {
      EXPECT_TRUE(report.complete) << threads << " threads";
    }
    // The gray host's drain must run to completion. The partitioned host
    // may also arm a drain (it looks gray while cut off) that the silence
    // conviction then aborts — recovery takes over; every drain therefore
    // either completes or is aborted by a recovery, never wedges.
    EXPECT_GE(bed.manager()->drains().size(), 1u) << threads << " threads";
    std::size_t completed_drains = 0;
    for (const elastic::DrainReport& drain : bed.manager()->drains()) {
      EXPECT_TRUE(drain.complete || drain.aborted) << threads << " threads";
      if (!drain.complete) continue;
      ++completed_drains;
      EXPECT_EQ(drain.host, bed.worker_hosts()[0]) << threads << " threads";
      EXPECT_GT(drain.slices_moved, 0u) << threads << " threads";
    }
    EXPECT_EQ(completed_drains, 1u) << threads << " threads";

    // Every injected fault actually fired on the wire.
    const net::NetworkStats& net = bed.network().stats();
    EXPECT_GT(net.messages_lost, 0u);
    EXPECT_GT(net.messages_duplicated, 0u);
    EXPECT_GT(net.messages_reordered, 0u);
    EXPECT_GT(net.messages_partitioned, 0u);
    // ...and the reliable control channel earned its keep.
    const net::ReliableStats reliable = bed.engine().reliable_stats();
    EXPECT_GT(reliable.delivered, 0u);
    EXPECT_GT(reliable.retransmits, 0u);

    const auto audit = verify_exactly_once(bed);
    EXPECT_TRUE(audit.exactly_once())
        << "published=" << audit.published << " missing=" << audit.missing
        << " duplicated=" << audit.duplicated
        << " mismatched=" << audit.mismatched << " at " << threads
        << " threads";
    return chaos_fingerprint(bed);
  };

  const ChaosFingerprint reference = run(1);
  EXPECT_GT(reference.notifications, 0u);
  EXPECT_EQ(reference.drains_completed, 1u);
  for (const std::size_t threads : {2u, 4u, 8u}) {
    EXPECT_EQ(run(threads), reference) << threads << " threads";
  }
}

// ---- split/merge torture ----------------------------------------------------

// Crash-torture deployment: M isolated on its own pair of hosts. A crash
// mid-transition must kill matcher state, not the co-located upstream AP —
// an AP crash concurrent with an in-flight split/merge invalidates the
// saved cut vector's channel numbering and is documented out-of-scope
// (PROTOCOL.md); the generic co-crash chaos tests cover AP deaths.
TestbedConfig torture_config() {
  auto config = chaos_config();
  config.worker_hosts = 4;
  config.iaas.max_hosts = 7;
  config.placement = [](const std::vector<HostId>& workers) {
    pubsub::HostAssignment assignment;
    assignment["AP"] = {workers[0], workers[1]};
    assignment["EP"] = {workers[0], workers[1]};
    assignment["M"] = {workers[2], workers[3]};
    return assignment;
  };
  return config;
}

// The M-side worker (torture_config placement) not hosting `slice`.
HostId other_m_worker(Testbed& bed, SliceId slice) {
  const HostId current = bed.engine().slice_host(slice);
  const auto& workers = bed.worker_hosts();
  return workers[2] == current ? workers[3] : workers[2];
}

// Baseline: a key-level split and the inverse merge under live publication
// load, no faults. Routing flips mid-stream twice; the oracle must still
// confirm exactly-once delivery and the coverage must return to depth 0.
TEST(SplitMergeTortureTest, SplitThenMergeUnderLoadIsExactlyOnce) {
  Testbed bed{torture_config()};
  bed.manager()->set_enforcement(false);
  bed.delays().enable_audit();
  bed.store_subscriptions(1000);

  auto driver =
      bed.drive(std::make_shared<workload::ConstantRate>(200.0, seconds(6)));

  const SliceId parent = bed.engine().slice_id("M", 0);
  const HostId dst = other_m_worker(bed, parent);
  std::optional<engine::TransitionReport> split_report;
  std::optional<engine::TransitionReport> merge_report;
  bed.simulator().schedule(seconds(2), [&] {
    bed.engine().split_slice(
        parent, dst, [&](const engine::TransitionReport& r) {
          split_report = r;
          bed.simulator().schedule(seconds(1), [&] {
            bed.engine().merge_slices(
                parent, split_report->child,
                [&](const engine::TransitionReport& r2) { merge_report = r2; });
          });
        });
  });

  bed.run_for(seconds(6) + millis(10));
  driver->stop();
  ASSERT_TRUE(bed.run_until([&] { return merge_report.has_value(); },
                            seconds(30)));
  await_drain(bed);
  bed.run_for(seconds(1));

  ASSERT_TRUE(split_report.has_value());
  EXPECT_TRUE(split_report->completed);
  EXPECT_EQ(split_report->kind, engine::TransitionKind::kSplit);
  EXPECT_GT(split_report->moved, 0u);  // state actually changed hands
  EXPECT_GE(split_report->cutover, split_report->requested);
  EXPECT_GE(split_report->finished, split_report->cutover);
  EXPECT_TRUE(merge_report->completed);
  EXPECT_EQ(merge_report->kind, engine::TransitionKind::kMerge);
  EXPECT_EQ(bed.engine().splits_completed(), 1u);
  EXPECT_EQ(bed.engine().merges_completed(), 1u);
  EXPECT_EQ(bed.engine().slice_coverage(parent).depth, 0u);

  const auto audit = verify_exactly_once(bed);
  EXPECT_GT(audit.published, 500u);
  EXPECT_TRUE(audit.exactly_once())
      << "published=" << audit.published << " missing=" << audit.missing
      << " duplicated=" << audit.duplicated
      << " mismatched=" << audit.mismatched;
}

// Crash torture, split half: at every coordinator step of an in-flight
// split, kill the parent's host or the child's host (via the network, so
// detection, conviction and recovery all run the production path). The
// transition must finish (abort pre-cut-over, roll forward after), the
// cluster must heal, and delivery must stay exactly-once.
TEST(SplitMergeTortureTest, CrashAtEverySplitStepHealsExactlyOnce) {
  struct Case {
    std::string_view step;
    bool kill_parent;
  };
  const Case cases[] = {
      {"create-child", true}, {"create-child", false}, {"drain", true},
      {"drain", false},       {"activate", true},      {"activate", false},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string{"step="} + std::string{c.step} +
                 (c.kill_parent ? " victim=parent" : " victim=child"));
    Testbed bed{torture_config()};
    bed.manager()->set_enforcement(false);
    bed.delays().enable_audit();
    bed.store_subscriptions(1000);
    auto driver =
        bed.drive(std::make_shared<workload::ConstantRate>(200.0, seconds(6)));

    const SliceId parent = bed.engine().slice_id("M", 0);
    const HostId parent_host = bed.engine().slice_host(parent);
    const HostId dst = other_m_worker(bed, parent);
    bool crashed = false;
    std::optional<engine::TransitionReport> report;
    bed.engine().on_reconfig_step(
        [&](engine::ReconfigKind, std::string_view step) {
          if (crashed || step != c.step) return;
          crashed = true;
          bed.network().set_host_down(c.kill_parent ? parent_host : dst, true);
        });
    bed.simulator().schedule(seconds(2), [&] {
      bed.engine().split_slice(
          parent, dst,
          [&](const engine::TransitionReport& r) { report = r; });
    });

    bed.run_for(seconds(6) + millis(10));
    driver->stop();
    EXPECT_TRUE(crashed);
    await_heal(bed, *bed.manager(), 1);
    ASSERT_TRUE(
        bed.run_until([&] { return report.has_value(); }, seconds(60)));
    await_drain(bed);
    bed.run_for(seconds(2));

    EXPECT_EQ(bed.engine().pending_reconfigs(), 0u);
    const auto audit = verify_exactly_once(bed);
    EXPECT_TRUE(audit.exactly_once())
        << "published=" << audit.published << " missing=" << audit.missing
        << " duplicated=" << audit.duplicated
        << " mismatched=" << audit.mismatched;
  }
}

// Crash torture, merge half: same drill at every step of an in-flight
// merge — survivor's host and retiree's host each die at drain-retiree,
// absorb and teardown. Merges never abort; every case must roll forward to
// completion through recovery, and delivery must stay exactly-once.
TEST(SplitMergeTortureTest, CrashAtEveryMergeStepHealsExactlyOnce) {
  struct Case {
    std::string_view step;
    bool kill_survivor;
  };
  const Case cases[] = {
      {"drain-retiree", true}, {"drain-retiree", false}, {"absorb", true},
      {"absorb", false},       {"teardown", true},       {"teardown", false},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string{"step="} + std::string{c.step} +
                 (c.kill_survivor ? " victim=survivor" : " victim=retiree"));
    Testbed bed{torture_config()};
    bed.manager()->set_enforcement(false);
    bed.delays().enable_audit();
    bed.store_subscriptions(1000);
    auto driver =
        bed.drive(std::make_shared<workload::ConstantRate>(200.0, seconds(7)));

    const SliceId parent = bed.engine().slice_id("M", 0);
    const HostId parent_host = bed.engine().slice_host(parent);
    const HostId dst = other_m_worker(bed, parent);
    bool crashed = false;
    std::optional<engine::TransitionReport> merge_report;
    bed.engine().on_reconfig_step(
        [&](engine::ReconfigKind, std::string_view step) {
          if (crashed || step != c.step) return;
          crashed = true;
          bed.network().set_host_down(c.kill_survivor ? parent_host : dst,
                                      true);
        });
    bed.simulator().schedule(seconds(1), [&] {
      bed.engine().split_slice(
          parent, dst, [&](const engine::TransitionReport& split_r) {
            ASSERT_TRUE(split_r.completed);
            const SliceId child = split_r.child;
            bed.simulator().schedule(millis(500), [&bed, parent, child,
                                                   &merge_report] {
              bed.engine().merge_slices(
                  parent, child,
                  [&merge_report](const engine::TransitionReport& r) {
                    merge_report = r;
                  });
            });
          });
    });

    bed.run_for(seconds(7) + millis(10));
    driver->stop();
    EXPECT_TRUE(crashed);
    await_heal(bed, *bed.manager(), 1);
    ASSERT_TRUE(
        bed.run_until([&] { return merge_report.has_value(); }, seconds(60)));
    EXPECT_TRUE(merge_report->completed);
    await_drain(bed);
    bed.run_for(seconds(2));

    EXPECT_EQ(bed.engine().pending_reconfigs(), 0u);
    EXPECT_EQ(bed.engine().merges_completed(), 1u);
    const auto audit = verify_exactly_once(bed);
    EXPECT_TRUE(audit.exactly_once())
        << "published=" << audit.published << " missing=" << audit.missing
        << " duplicated=" << audit.duplicated
        << " mismatched=" << audit.mismatched;
  }
}

// Determinism: a split whose parent host dies mid-drain (forcing the
// checkpoint+replay roll-forward), followed by the merge back — the whole
// outcome must be byte-identical at every worker thread count.
TEST(SplitMergeTortureTest, SplitCrashMergeByteIdenticalAcrossThreads) {
  auto run = [](std::size_t threads) {
    auto config = torture_config();
    config.engine.worker_threads = threads;
    Testbed bed{config};
    bed.manager()->set_enforcement(false);
    bed.delays().enable_audit();
    bed.store_subscriptions(1000);
    auto driver =
        bed.drive(std::make_shared<workload::ConstantRate>(200.0, seconds(7)));

    const SliceId parent = bed.engine().slice_id("M", 1);
    const HostId parent_host = bed.engine().slice_host(parent);
    const HostId dst = other_m_worker(bed, parent);
    bool crashed = false;
    std::optional<engine::TransitionReport> merge_report;
    bed.engine().on_reconfig_step(
        [&](engine::ReconfigKind, std::string_view step) {
          if (crashed || step != "drain") return;
          crashed = true;
          bed.network().set_host_down(parent_host, true);
        });
    bed.simulator().schedule(millis(1500), [&] {
      bed.engine().split_slice(
          parent, dst, [&](const engine::TransitionReport& split_r) {
            EXPECT_TRUE(split_r.completed) << threads << " threads";
            const SliceId child = split_r.child;
            bed.simulator().schedule(seconds(1), [&bed, parent, child,
                                                  &merge_report] {
              bed.engine().merge_slices(
                  parent, child,
                  [&merge_report](const engine::TransitionReport& r) {
                    merge_report = r;
                  });
            });
          });
    });

    bed.run_for(seconds(7) + millis(10));
    driver->stop();
    await_heal(bed, *bed.manager(), 1);
    EXPECT_TRUE(bed.run_until([&] { return merge_report.has_value(); },
                              seconds(60)))
        << threads << " threads";
    await_drain(bed);
    bed.run_for(seconds(2));

    EXPECT_EQ(bed.engine().splits_completed(), 1u) << threads << " threads";
    EXPECT_EQ(bed.engine().merges_completed(), 1u) << threads << " threads";
    const auto audit = verify_exactly_once(bed);
    EXPECT_TRUE(audit.exactly_once())
        << "published=" << audit.published << " missing=" << audit.missing
        << " duplicated=" << audit.duplicated
        << " mismatched=" << audit.mismatched << " at " << threads
        << " threads";
    return chaos_fingerprint(bed);
  };

  const ChaosFingerprint reference = run(1);
  EXPECT_GT(reference.notifications, 0u);
  EXPECT_EQ(reference.splits, 1u);
  EXPECT_EQ(reference.merges, 1u);
  for (const std::size_t threads : {2u, 4u, 8u}) {
    EXPECT_EQ(run(threads), reference) << threads << " threads";
  }
}

// ---- migration-strategy torture ---------------------------------------------

// EP isolated on its own worker pair, mirroring torture_config's M isolation.
// The pre-copy torture migrates an EP slice because EP state (pending merges
// and the completed set) mutates on every publication, so dirty-delta rounds
// ship real bytes under live load; M's matcher state is static once the
// storage phase ends and would drain the pre-copy loop after one round.
TestbedConfig ep_torture_config() {
  auto config = chaos_config();
  config.worker_hosts = 4;
  config.iaas.max_hosts = 7;
  config.placement = [](const std::vector<HostId>& workers) {
    pubsub::HostAssignment assignment;
    assignment["AP"] = {workers[0], workers[1]};
    assignment["M"] = {workers[0], workers[1]};
    assignment["EP"] = {workers[2], workers[3]};
    return assignment;
  };
  return config;
}

// Crash torture, stop-and-restart: at every coordinator step of the
// redirect-park protocol, kill the source's host or the destination's host
// via the network, so detection, conviction and recovery all run the
// production path. The move must finish (abort or roll forward), the
// cluster must heal, and delivery must stay exactly-once.
TEST(MigrationStrategyTortureTest, StopRestartCrashAtEveryStepHealsExactlyOnce) {
  struct Case {
    std::string_view step;
    bool kill_src;
  };
  const Case cases[] = {
      {"create-replica", true}, {"create-replica", false},
      {"park", true},           {"park", false},
      {"transfer", true},       {"transfer", false},
      {"directory-update", true}, {"directory-update", false},
      {"teardown", true},       {"teardown", false},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string{"step="} + std::string{c.step} +
                 (c.kill_src ? " victim=src" : " victim=dst"));
    Testbed bed{torture_config()};
    bed.manager()->set_enforcement(false);
    bed.delays().enable_audit();
    bed.store_subscriptions(1000);
    auto driver =
        bed.drive(std::make_shared<workload::ConstantRate>(200.0, seconds(6)));

    const SliceId slice = bed.engine().slice_id("M", 0);
    const HostId src = bed.engine().slice_host(slice);
    const HostId dst = other_m_worker(bed, slice);
    bool crashed = false;
    std::optional<engine::MigrationReport> report;
    bed.engine().on_reconfig_step(
        [&](engine::ReconfigKind, std::string_view step) {
          if (crashed || step != c.step) return;
          crashed = true;
          bed.network().set_host_down(c.kill_src ? src : dst, true);
        });
    bed.simulator().schedule(seconds(2), [&] {
      bed.engine().migrate(
          slice, dst, engine::MigrationStrategyKind::kStopAndRestart,
          [&](const engine::MigrationReport& r) { report = r; });
    });

    bed.run_for(seconds(6) + millis(10));
    driver->stop();
    EXPECT_TRUE(crashed);
    await_heal(bed, *bed.manager(), 1);
    ASSERT_TRUE(bed.run_until([&] { return report.has_value(); }, seconds(60)));
    EXPECT_EQ(report->strategy, "stop-and-restart");
    if (c.kill_src) {
      EXPECT_TRUE(report->outcome == engine::MigrationOutcome::kCompleted ||
                  report->outcome ==
                      engine::MigrationOutcome::kAbortedSrcFailed);
    } else {
      EXPECT_TRUE(report->outcome == engine::MigrationOutcome::kCompleted ||
                  report->outcome ==
                      engine::MigrationOutcome::kAbortedDstFailed);
    }
    await_drain(bed);
    bed.run_for(seconds(2));

    EXPECT_EQ(bed.engine().pending_reconfigs(), 0u);
    const auto audit = verify_exactly_once(bed);
    EXPECT_TRUE(audit.exactly_once())
        << "published=" << audit.published << " missing=" << audit.missing
        << " duplicated=" << audit.duplicated
        << " mismatched=" << audit.mismatched;
  }
}

// Crash torture, incremental-precopy: same drill at every step of the
// dirty-delta protocol — including a crash in the SECOND pre-copy round,
// which only exists because live publications keep dirtying the EP state
// between rounds.
TEST(MigrationStrategyTortureTest, PrecopyCrashAtEveryStepHealsExactlyOnce) {
  struct Case {
    std::string_view step;
    int nth;  // crash at the nth entry of `step` (pre-copy fires per round)
    bool kill_src;
  };
  const Case cases[] = {
      {"create-replica", 1, true}, {"create-replica", 1, false},
      {"duplication", 1, true},    {"duplication", 1, false},
      {"precopy", 1, true},        {"precopy", 1, false},
      {"precopy", 2, true},        {"precopy", 2, false},
      {"transfer", 1, true},       {"transfer", 1, false},
      {"directory-update", 1, true}, {"directory-update", 1, false},
      {"teardown", 1, true},       {"teardown", 1, false},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string{"step="} + std::string{c.step} + "#" +
                 std::to_string(c.nth) +
                 (c.kill_src ? " victim=src" : " victim=dst"));
    Testbed bed{ep_torture_config()};
    bed.manager()->set_enforcement(false);
    bed.delays().enable_audit();
    bed.store_subscriptions(1000);
    auto driver =
        bed.drive(std::make_shared<workload::ConstantRate>(200.0, seconds(6)));

    const SliceId slice = bed.engine().slice_id("EP", 0);
    const HostId src = bed.engine().slice_host(slice);
    const HostId dst = other_m_worker(bed, slice);
    bool crashed = false;
    int seen = 0;
    std::optional<engine::MigrationReport> report;
    bed.engine().on_reconfig_step(
        [&](engine::ReconfigKind, std::string_view step) {
          if (crashed || step != c.step) return;
          if (++seen < c.nth) return;
          crashed = true;
          bed.network().set_host_down(c.kill_src ? src : dst, true);
        });
    bed.simulator().schedule(seconds(2), [&] {
      bed.engine().migrate(
          slice, dst, engine::MigrationStrategyKind::kIncrementalPrecopy,
          [&](const engine::MigrationReport& r) { report = r; });
    });

    bed.run_for(seconds(6) + millis(10));
    driver->stop();
    EXPECT_TRUE(crashed);
    await_heal(bed, *bed.manager(), 1);
    ASSERT_TRUE(bed.run_until([&] { return report.has_value(); }, seconds(60)));
    EXPECT_EQ(report->strategy, "incremental-precopy");
    if (c.kill_src) {
      EXPECT_TRUE(report->outcome == engine::MigrationOutcome::kCompleted ||
                  report->outcome ==
                      engine::MigrationOutcome::kAbortedSrcFailed);
    } else {
      EXPECT_TRUE(report->outcome == engine::MigrationOutcome::kCompleted ||
                  report->outcome ==
                      engine::MigrationOutcome::kAbortedDstFailed);
    }
    await_drain(bed);
    bed.run_for(seconds(2));

    EXPECT_EQ(bed.engine().pending_reconfigs(), 0u);
    const auto audit = verify_exactly_once(bed);
    EXPECT_TRUE(audit.exactly_once())
        << "published=" << audit.published << " missing=" << audit.missing
        << " duplicated=" << audit.duplicated
        << " mismatched=" << audit.mismatched;
  }
}

// Manager torture: the migration coordinator lives on the manager host, so
// cutting that host off mid-protocol severs every in-flight control RPC.
// With reliable control channels the protocol must ride out a partition
// shorter than the retry budget at ANY step of either new strategy: no
// abort, no wedge — the move completes once the partition heals. Data-plane
// injection and worker-to-worker event flow do not touch the manager host,
// so delivery must stay exactly-once throughout.
TEST(MigrationStrategyTortureTest, ManagerPartitionAtEveryStepStillCompletes) {
  struct Case {
    engine::MigrationStrategyKind kind;
    std::string_view step;
  };
  using Kind = engine::MigrationStrategyKind;
  const Case cases[] = {
      {Kind::kStopAndRestart, "create-replica"},
      {Kind::kStopAndRestart, "park"},
      {Kind::kStopAndRestart, "transfer"},
      {Kind::kStopAndRestart, "directory-update"},
      {Kind::kStopAndRestart, "teardown"},
      {Kind::kIncrementalPrecopy, "create-replica"},
      {Kind::kIncrementalPrecopy, "duplication"},
      {Kind::kIncrementalPrecopy, "precopy"},
      {Kind::kIncrementalPrecopy, "transfer"},
      {Kind::kIncrementalPrecopy, "directory-update"},
      {Kind::kIncrementalPrecopy, "teardown"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string{engine::to_string(c.kind)} + " step=" +
                 std::string{c.step});
    auto config = torture_config();
    config.engine.reliable_control = true;
    config.engine.reliable.initial_rto = millis(50);
    // No host dies in this drill; nothing should need (or run) recovery.
    config.manager.recovery.enabled = false;
    Testbed bed{config};
    bed.manager()->set_enforcement(false);
    bed.delays().enable_audit();
    bed.store_subscriptions(1000);
    auto driver =
        bed.drive(std::make_shared<workload::ConstantRate>(150.0, seconds(5)));

    const SliceId slice = bed.engine().slice_id("M", 0);
    const HostId dst = other_m_worker(bed, slice);
    std::vector<HostId> others = bed.worker_hosts();
    others.insert(others.end(), bed.io_hosts().begin(), bed.io_hosts().end());
    bool cut = false;
    std::optional<engine::MigrationReport> report;
    bed.engine().on_reconfig_step(
        [&](engine::ReconfigKind, std::string_view step) {
          if (cut || step != c.step) return;
          cut = true;
          bed.network().partition("mgr-cut", {bed.manager_host()}, others);
          bed.simulator().schedule(millis(700), [&] {
            bed.network().heal("mgr-cut");
          });
        });
    bed.simulator().schedule(millis(1500), [&] {
      bed.engine().migrate(slice, dst, c.kind,
                           [&](const engine::MigrationReport& r) {
                             report = r;
                           });
    });

    bed.run_for(seconds(5) + millis(10));
    driver->stop();
    EXPECT_TRUE(cut);
    ASSERT_TRUE(bed.run_until([&] { return report.has_value(); }, seconds(60)));
    EXPECT_EQ(report->outcome, engine::MigrationOutcome::kCompleted);
    EXPECT_EQ(report->strategy, engine::to_string(c.kind));
    EXPECT_EQ(bed.engine().slice_host(slice), dst);
    await_drain(bed);
    bed.run_for(seconds(1));

    EXPECT_EQ(bed.engine().pending_reconfigs(), 0u);
    EXPECT_TRUE(bed.manager()->recoveries().empty());
    // The partition really severed control traffic, and the reliable
    // channel really carried the protocol across it.
    EXPECT_GT(bed.network().stats().messages_partitioned, 0u);
    EXPECT_GT(bed.engine().reliable_stats().retransmits, 0u);
    const auto audit = verify_exactly_once(bed);
    EXPECT_TRUE(audit.exactly_once())
        << "published=" << audit.published << " missing=" << audit.missing
        << " duplicated=" << audit.duplicated
        << " mismatched=" << audit.mismatched;
  }
}

// The enforcer's key-level rules end to end: a hot M slice (split_share
// tuned below the live load) triggers an automatic hotspot split through
// the manager, and once the load stops, the cold-merge rule folds the pair
// back — no manual split/merge calls anywhere.
TEST(SplitMergeTortureTest, EnforcerHotspotSplitsAndColdMergesAutomatically) {
  auto config = chaos_config();
  config.manager.policy.enable_splits = true;
  config.manager.policy.split_share = 0.002;
  config.manager.policy.merge_share = 0.5;
  // Isolate the key-level rules: park every placement rule out of reach.
  config.manager.policy.global_high = 10.0;
  config.manager.policy.global_low = 0.0;
  config.manager.policy.local_high = 10.0;
  config.manager.policy.local_low = 0.0;
  config.manager.policy.grace = seconds(3);
  config.manager.policy.scale_out_grace = seconds(60);  // one split, not many
  Testbed bed{config};
  bed.delays().enable_audit();
  bed.store_subscriptions(1000);

  auto driver =
      bed.drive(std::make_shared<workload::ConstantRate>(200.0, seconds(6)));
  ASSERT_TRUE(bed.run_until(
      [&] { return bed.engine().splits_completed() >= 1; }, seconds(6)))
      << "no automatic split; hottest slice never crossed split_share";
  bed.run_for(seconds(6));
  driver->stop();

  ASSERT_TRUE(bed.run_until(
      [&] { return bed.engine().merges_completed() >= 1; }, seconds(60)))
      << "cold-merge rule never folded the split pair back";
  await_drain(bed);
  bed.run_for(seconds(1));

  const auto& transitions = bed.manager()->transitions();
  ASSERT_GE(transitions.size(), 2u);
  EXPECT_EQ(transitions.front().kind, engine::TransitionKind::kSplit);
  EXPECT_TRUE(transitions.front().completed);
  bool merged = false;
  for (const auto& t : transitions) {
    if (t.kind == engine::TransitionKind::kMerge && t.completed) merged = true;
  }
  EXPECT_TRUE(merged);

  const auto audit = verify_exactly_once(bed);
  EXPECT_TRUE(audit.exactly_once())
      << "published=" << audit.published << " missing=" << audit.missing
      << " duplicated=" << audit.duplicated
      << " mismatched=" << audit.mismatched;
}

// ---- reconfiguration golden pin ---------------------------------------------
//
// FNV-1a over everything the reconfiguration coordinator lets an observer
// see on a checkpointed testbed: every field of every MigrationReport and
// TransitionReport, the ordered (kind, step, simulated time) sequence of
// the step hook, the final slice placement and key coverages, and the
// delivery audit. How the coordinator queues, dispatches and finishes
// operations may change; these constants may not.

struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void byte(std::uint8_t b) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void time(SimTime t) { u64(static_cast<std::uint64_t>(t.count())); }
  void str(std::string_view s) {
    u64(s.size());
    for (const char c : s) byte(static_cast<std::uint8_t>(c));
  }
};

// Every operator's slices with their hosts and key coverages.
void hash_placement(Fnv1a& f, engine::Engine& engine) {
  f.str("placement");
  for (const auto& op : engine.static_config().operators) {
    f.str(op.name);
    for (std::size_t i = 0; i < op.slices.size(); ++i) {
      f.u64(op.slices[i].value());
      f.u64(engine.slice_host(op.slices[i]).value());
      f.u64(op.coverages[i].base);
      f.u64(op.coverages[i].bucket);
      f.u64(op.coverages[i].depth);
      f.u64(op.coverages[i].tag);
    }
  }
}

// The oracle's exactly-once verdict and every publication's deliveries.
void hash_audit(Fnv1a& f, Testbed& bed) {
  const auto audit = verify_exactly_once(bed);
  EXPECT_TRUE(audit.exactly_once())
      << "published=" << audit.published << " missing=" << audit.missing
      << " duplicated=" << audit.duplicated
      << " mismatched=" << audit.mismatched;
  f.str("audit");
  f.u64(audit.published);
  f.u64(audit.delivered);
  f.u64(audit.missing);
  f.u64(audit.duplicated);
  f.u64(audit.mismatched);
  for (const PublicationId pub : sorted_keys(bed.delays().audit())) {
    const auto& entry = bed.delays().audit().at(pub);
    f.u64(pub.value());
    f.u64(entry.deliveries);
    f.u64(entry.subscribers.size());
    for (const SubscriberId s : entry.subscribers) f.u64(s.value());
  }
}

// A torture testbed under 200 pub/s that hashes every coordinator
// observation as it happens. crash_at() arms one fault: the victim's host
// goes down (via the network, so detection and recovery run the production
// path) when an operation of the given kind enters the given step.
class ReconfigGolden {
 public:
  explicit ReconfigGolden(TestbedConfig config = torture_config())
      : bed_{std::move(config)} {
    bed_.manager()->set_enforcement(false);
    bed_.delays().enable_audit();
    bed_.store_subscriptions(1000);
    driver_ =
        bed_.drive(std::make_shared<workload::ConstantRate>(200.0, seconds(6)));
    bed_.engine().on_reconfig_step(
        [this](engine::ReconfigKind kind, std::string_view step) {
          on_step(engine::to_string(kind), step);
        });
  }

  Testbed& bed() { return bed_; }
  engine::Engine& engine() { return bed_.engine(); }

  void crash_at(std::string_view kind, std::string_view step, HostId victim) {
    crash_ = Crash{kind, step, victim};
  }

  // Completion callbacks: hash the report, then (optionally) issue the
  // next operation `delay` later (zero: from inside the callback, as the
  // manager does).
  engine::MigrationCallback migrated(std::function<void()> next = {},
                                     SimDuration delay = millis(300)) {
    return [this, next, delay](const engine::MigrationReport& r) {
      f_.str("migration-report");
      f_.u64(r.id.value());
      f_.u64(r.slice.value());
      f_.u64(r.src.value());
      f_.u64(r.dst.value());
      f_.str(r.strategy);
      f_.str(engine::to_string(r.outcome));
      f_.time(r.requested);
      f_.time(r.frozen);
      f_.time(r.activated);
      f_.time(r.completed);
      f_.u64(r.state_bytes);
      f_.u64(r.transfer_bytes);
      f_.u64(r.precopy_bytes);
      f_.u64(r.duplicate_bytes);
      finished(next, delay);
    };
  }
  engine::TransitionCallback transitioned(
      std::function<void(const engine::TransitionReport&)> next = {},
      SimDuration delay = millis(300)) {
    return [this, next, delay](const engine::TransitionReport& r) {
      f_.str("transition-report");
      f_.u64(r.id.value());
      f_.str(engine::to_string(r.kind));
      f_.u64(r.parent.value());
      f_.u64(r.child.value());
      f_.u64(r.completed ? 1 : 0);
      f_.time(r.requested);
      f_.time(r.cutover);
      f_.time(r.finished);
      f_.u64(r.moved);
      finished(next ? std::function<void()>{[next, r] { next(r); }}
                    : std::function<void()>{},
               delay);
    };
  }

  // Runs the load out, waits for `ops` callbacks and `crashes` healed
  // recoveries and for the stream to drain, then folds in the final
  // placement, coverages and delivery audit.
  std::uint64_t finish(std::size_t ops, std::size_t crashes) {
    bed_.run_for(seconds(6) + millis(10));
    driver_->stop();
    if (crashes > 0) await_heal(bed_, *bed_.manager(), crashes);
    EXPECT_TRUE(bed_.run_until([&] { return done_ >= ops; }, seconds(60)))
        << done_ << "/" << ops << " reconfigurations finished";
    await_drain(bed_);
    bed_.run_for(seconds(2));
    EXPECT_FALSE(crash_.has_value()) << "armed crash never fired";

    hash_placement(f_, engine());
    f_.u64(engine().migrations_completed());
    f_.u64(engine().splits_completed());
    f_.u64(engine().merges_completed());
    f_.u64(bed_.manager()->recoveries().size());
    hash_audit(f_, bed_);
    return f_.h;
  }

 private:
  struct Crash {
    std::string_view kind;
    std::string_view step;
    HostId victim;
  };

  void on_step(std::string_view kind, std::string_view step) {
    f_.str(kind);
    f_.str(step);
    f_.time(bed_.simulator().now());
    if (crash_ && crash_->kind == kind && crash_->step == step) {
      const HostId victim = crash_->victim;
      crash_.reset();
      bed_.network().set_host_down(victim, true);
    }
  }

  void finished(const std::function<void()>& next, SimDuration delay) {
    ++done_;
    if (!next) return;
    if (delay == SimDuration::zero()) {
      next();
    } else {
      bed_.simulator().schedule(delay, next);
    }
  }

  Testbed bed_;
  std::unique_ptr<workload::PublicationDriver> driver_;
  Fnv1a f_;
  std::optional<Crash> crash_;
  std::size_t done_ = 0;
};

// The EP worker (torture_config placement) not hosting `slice`.
HostId other_ep_worker(Testbed& bed, SliceId slice) {
  const HostId current = bed.engine().slice_host(slice);
  const auto& workers = bed.worker_hosts();
  return workers[0] == current ? workers[1] : workers[0];
}

// One move under each strategy, then a split and the merge back, each
// issued from the previous operation's callback.
TEST(ReconfigGoldenTest, StrategiesThenSplitAndMergeUnchanged) {
  using Kind = engine::MigrationStrategyKind;
  ReconfigGolden g;
  engine::Engine& e = g.engine();
  const SliceId m0 = e.slice_id("M", 0);
  const SliceId m1 = e.slice_id("M", 1);
  const SliceId m2 = e.slice_id("M", 2);
  const SliceId ep0 = e.slice_id("EP", 0);
  const auto merge_back = [&](const engine::TransitionReport& split) {
    e.merge_slices(m2, split.child, g.transitioned());
  };
  const auto split = [&] {
    e.split_slice(m2, other_m_worker(g.bed(), m2), g.transitioned(merge_back));
  };
  const auto precopy = [&] {
    e.migrate(ep0, other_ep_worker(g.bed(), ep0), Kind::kIncrementalPrecopy,
              g.migrated(split));
  };
  const auto stop_restart = [&] {
    e.migrate(m1, other_m_worker(g.bed(), m1), Kind::kStopAndRestart,
              g.migrated(precopy));
  };
  g.bed().simulator().schedule(millis(1500), [&] {
    e.migrate(m0, other_m_worker(g.bed(), m0), Kind::kBufferedReplay,
              g.migrated(stop_restart));
  });
  EXPECT_EQ(g.finish(5, 0), 0x9666dd6aecbd6d7aULL);
}

// The destination dies as a buffered-replay move enters its transfer. The
// source has shipped its frozen state to the dead host by the time the
// death is convicted, so the abort loses the slice on a live host. The
// move is issued to the engine directly, so no manager hands the slice to
// recovery: it is recovered by hand from the callback (ManagerPlanTest
// covers the manager's hand-off).
TEST(ReconfigGoldenTest, MidMigrationDestinationCrashUnchanged) {
  ReconfigGolden g;
  engine::Engine& e = g.engine();
  const SliceId m0 = e.slice_id("M", 0);
  const HostId dst = other_m_worker(g.bed(), m0);
  g.crash_at("migration", "transfer", dst);
  g.bed().simulator().schedule(seconds(2), [&] {
    e.migrate(m0, dst, engine::MigrationStrategyKind::kBufferedReplay,
              g.migrated(
                  [&] {
                    if (e.slice_lost(m0)) {
                      e.recover_slice(m0, g.bed().worker_hosts()[0], {});
                    }
                  },
                  SimDuration::zero()));
  });
  EXPECT_EQ(g.finish(1, 1), 0xecb03ab9028be7a3ULL);
}

// The source dies mid-transfer: the slice is lost with it and recovered by
// the manager, and the coordinator tears the replica down.
TEST(ReconfigGoldenTest, MidMigrationSourceCrashUnchanged) {
  ReconfigGolden g;
  engine::Engine& e = g.engine();
  const SliceId m0 = e.slice_id("M", 0);
  g.crash_at("migration", "transfer", e.slice_host(m0));
  g.bed().simulator().schedule(seconds(2), [&] {
    e.migrate(m0, other_m_worker(g.bed(), m0),
              engine::MigrationStrategyKind::kBufferedReplay, g.migrated());
  });
  EXPECT_EQ(g.finish(1, 1), 0x6a657b2c5cb93781ULL);
}

// The destination dies during a pre-copy round of an EP move: the round's
// ack never comes, and the abort stops the shadow duplication.
TEST(ReconfigGoldenTest, MidPrecopyDestinationCrashUnchanged) {
  ReconfigGolden g{ep_torture_config()};
  engine::Engine& e = g.engine();
  const SliceId ep0 = e.slice_id("EP", 0);
  const HostId dst = other_m_worker(g.bed(), ep0);
  g.crash_at("migration", "precopy", dst);
  g.bed().simulator().schedule(seconds(2), [&] {
    e.migrate(ep0, dst, engine::MigrationStrategyKind::kIncrementalPrecopy,
              g.migrated());
  });
  EXPECT_EQ(g.finish(1, 1), 0xdf7073774ac60b74ULL);
}

// The parent's host dies mid-drain: the split rolls forward through
// recovery, and the merge back is requested from the split's callback,
// before the re-driven capture is proven durable, so it waits at the head
// of the queue behind the roll-forward.
TEST(ReconfigGoldenTest, MidSplitCrashUnchanged) {
  ReconfigGolden g;
  engine::Engine& e = g.engine();
  const SliceId m1 = e.slice_id("M", 1);
  g.crash_at("split", "drain", e.slice_host(m1));
  g.bed().simulator().schedule(millis(1500), [&] {
    e.split_slice(m1, other_m_worker(g.bed(), m1),
                  g.transitioned(
                      [&](const engine::TransitionReport& r) {
                        e.merge_slices(m1, r.child, g.transitioned());
                      },
                      SimDuration::zero()));
  });
  EXPECT_EQ(g.finish(2, 1), 0x871c53156acbc14fULL);
}

// ---- one coordinator queue ---------------------------------------------------

// While a migration is in flight, a split, a second migration and a merge
// queue behind it. Whatever their kind, they run one at a time in request
// order: the step hook sees no step of an operation before the previous
// one's callback fired. Every callback fires exactly once, and the single
// pending counter counts down to zero.
TEST(ReconfigOrderTest, MixedRequestsRunOneAtATimeInRequestOrder) {
  using Kind = engine::MigrationStrategyKind;
  Testbed bed{torture_config()};
  bed.manager()->set_enforcement(false);
  bed.delays().enable_audit();
  bed.store_subscriptions(1000);
  auto driver =
      bed.drive(std::make_shared<workload::ConstantRate>(200.0, seconds(6)));
  engine::Engine& e = bed.engine();
  const SliceId m0 = e.slice_id("M", 0);
  const SliceId m1 = e.slice_id("M", 1);
  const SliceId m2 = e.slice_id("M", 2);
  const SliceId ep0 = e.slice_id("EP", 0);

  // A split beforehand makes (m0, its child) a mergeable sibling pair.
  std::optional<engine::TransitionReport> setup;
  e.split_slice(m0, other_m_worker(bed, m0),
                [&](const engine::TransitionReport& r) { setup = r; });
  ASSERT_TRUE(bed.run_until([&] { return setup.has_value(); }, seconds(10)));
  ASSERT_TRUE(setup->completed);
  bed.run_for(seconds(1));

  // "<kind> <step>" per hook call, "<kind> done" per callback.
  std::vector<std::string> log;
  std::vector<std::size_t> pending_at_done;
  std::vector<int> callbacks(4, 0);
  e.on_reconfig_step([&](engine::ReconfigKind kind, std::string_view step) {
    log.push_back(std::string{engine::to_string(kind)} + " " +
                  std::string{step});
  });
  const auto done = [&](std::size_t index, std::string_view kind) {
    ++callbacks[index];
    log.push_back(std::string{kind} + " done");
    pending_at_done.push_back(e.pending_reconfigs());
  };
  e.migrate(m1, other_m_worker(bed, m1), Kind::kBufferedReplay,
            [&](const engine::MigrationReport& r) {
              EXPECT_EQ(r.outcome, engine::MigrationOutcome::kCompleted);
              done(0, "migration");
            });
  EXPECT_EQ(e.pending_reconfigs(), 1u);
  e.split_slice(m2, other_m_worker(bed, m2),
                [&](const engine::TransitionReport& r) {
                  EXPECT_TRUE(r.completed);
                  done(1, "split");
                });
  e.migrate(ep0, other_ep_worker(bed, ep0), Kind::kStopAndRestart,
            [&](const engine::MigrationReport& r) {
              EXPECT_EQ(r.outcome, engine::MigrationOutcome::kCompleted);
              done(2, "migration");
            });
  e.merge_slices(m0, setup->child, [&](const engine::TransitionReport& r) {
    EXPECT_TRUE(r.completed);
    done(3, "merge");
  });
  EXPECT_EQ(e.pending_reconfigs(), 4u);

  ASSERT_TRUE(bed.run_until([&] { return pending_at_done.size() == 4; },
                            seconds(30)));
  driver->stop();
  await_drain(bed);
  bed.run_for(seconds(1));

  // Replay the log: each operation's steps, then its callback, with no
  // step of any other operation in between.
  std::vector<std::string> started;
  std::string current;
  for (const std::string& entry : log) {
    const std::string kind = entry.substr(0, entry.find(' '));
    if (entry.ends_with(" done")) {
      EXPECT_EQ(kind, current) << "callback of an operation not in flight";
      current.clear();
    } else if (current.empty()) {
      current = kind;
      started.push_back(kind);
    } else {
      EXPECT_EQ(kind, current) << "interleaved step: " << entry;
    }
  }
  EXPECT_EQ(started, (std::vector<std::string>{"migration", "split",
                                               "migration", "merge"}));
  EXPECT_EQ(callbacks, (std::vector<int>{1, 1, 1, 1}));
  EXPECT_EQ(pending_at_done, (std::vector<std::size_t>{3, 2, 1, 0}));
  EXPECT_EQ(e.pending_reconfigs(), 0u);

  const auto audit = verify_exactly_once(bed);
  EXPECT_TRUE(audit.exactly_once())
      << "published=" << audit.published << " missing=" << audit.missing
      << " duplicated=" << audit.duplicated
      << " mismatched=" << audit.mismatched;
}

// ---- manager golden pin ----------------------------------------------------
//
// FNV-1a over everything the elasticity manager lets an observer see once a
// run is over: every Migration, Transition, Recovery and Drain report, the
// load history, the managed host set, the final placement and coverages,
// and the delivery audit. How the manager walks a plan, re-places slices
// or reads its state back from the coordination tree may change; these
// constants may not.

void hash_manager(Fnv1a& f, const elastic::Manager& manager) {
  f.str("migrations");
  for (const engine::MigrationReport& r : manager.migrations()) {
    f.u64(r.id.value());
    f.u64(r.slice.value());
    f.u64(r.src.value());
    f.u64(r.dst.value());
    f.str(r.strategy);
    f.str(engine::to_string(r.outcome));
    f.time(r.requested);
    f.time(r.frozen);
    f.time(r.activated);
    f.time(r.completed);
    f.u64(r.state_bytes);
    f.u64(r.transfer_bytes);
    f.u64(r.precopy_bytes);
    f.u64(r.duplicate_bytes);
  }
  f.str("transitions");
  for (const engine::TransitionReport& r : manager.transitions()) {
    f.u64(r.id.value());
    f.str(engine::to_string(r.kind));
    f.u64(r.parent.value());
    f.u64(r.child.value());
    f.u64(r.completed ? 1 : 0);
    f.time(r.requested);
    f.time(r.cutover);
    f.time(r.finished);
    f.u64(r.moved);
  }
  f.str("recoveries");
  for (const elastic::RecoveryReport& r : manager.recoveries()) {
    f.u64(r.host.value());
    f.time(r.detected);
    f.time(r.quarantined);
    f.time(r.placed);
    f.time(r.recovered);
    f.u64(r.slices_lost.size());
    for (const SliceId s : r.slices_lost) f.u64(s.value());
    f.u64(r.slices_recovered);
    f.u64(r.replacement_hosts.size());
    for (const HostId h : r.replacement_hosts) f.u64(h.value());
    f.u64(r.retries);
    f.u64(r.complete ? 1 : 0);
  }
  f.str("drains");
  for (const elastic::DrainReport& r : manager.drains()) {
    f.u64(r.host.value());
    f.time(r.suspected);
    f.time(r.started);
    f.time(r.completed);
    f.u64(r.slices_moved);
    f.u64(r.complete ? 1 : 0);
    f.u64(r.aborted ? 1 : 0);
  }
  f.str("load");
  for (const elastic::LoadSample& s : manager.load_history()) {
    f.time(s.time);
    f.u64(s.hosts);
    f.u64(std::bit_cast<std::uint64_t>(s.min_cpu));
    f.u64(std::bit_cast<std::uint64_t>(s.avg_cpu));
    f.u64(std::bit_cast<std::uint64_t>(s.max_cpu));
  }
  f.str("managed");
  for (const HostId h : manager.managed_hosts()) f.u64(h.value());
  f.u64(manager.plans_executed());
}

// Stores the subscriptions with enforcement off, then drives 200 pub/s for
// six seconds with the manager enforcing (when `enforce`).
std::unique_ptr<workload::PublicationDriver> manager_load(Testbed& bed,
                                                          bool enforce) {
  bed.manager()->set_enforcement(false);
  bed.delays().enable_audit();
  bed.store_subscriptions(1000);
  bed.manager()->set_enforcement(enforce);
  return bed.drive(std::make_shared<workload::ConstantRate>(200.0, seconds(6)));
}

// Lets the stream drain, then hashes the managers (in order) and the
// cluster.
std::uint64_t manager_golden(
    Testbed& bed, std::initializer_list<const elastic::Manager*> managers) {
  await_drain(bed);
  bed.run_for(seconds(2));
  Fnv1a f;
  for (const elastic::Manager* manager : managers) hash_manager(f, *manager);
  hash_placement(f, bed.engine());
  hash_audit(f, bed);
  return f.h;
}

// The global rules through the built-in enforcer: the live load (about 1 %
// CPU per host) breaches a scaled-down band, so a scale-out plan brings in
// new hosts; once the load stops, scale-in plans empty and release hosts.
TEST(ManagerGoldenTest, ScaleOutThenScaleInUnchanged) {
  auto config = chaos_config();
  config.manager.policy.global_high = 0.008;
  config.manager.policy.target = 0.005;
  config.manager.policy.global_low = 0.003;
  config.manager.policy.placement_cap = 0.0092;
  config.manager.policy.local_high = 10.0;
  config.manager.policy.local_low = 0.0;
  config.manager.policy.grace = seconds(3);
  config.manager.policy.scale_out_grace = seconds(60);  // one scale-out
  Testbed bed{config};
  elastic::Manager& manager = *bed.manager();
  auto driver = manager_load(bed, true);
  bed.run_for(seconds(6) + millis(10));
  driver->stop();
  bed.run_for(seconds(15));
  EXPECT_FALSE(manager.plan_in_progress());
  EXPECT_EQ(manager.plans_executed(), 2u);  // one scale-out, one scale-in
  EXPECT_EQ(manager.managed_host_count(), 1u);
  EXPECT_EQ(manager_golden(bed, {&manager}), 0x929fd02a1265c65eULL);
}

// The key-level rules through the built-in enforcer: a hotspot split under
// load, then a cold merge once the load stops.
TEST(ManagerGoldenTest, SplitThenMergeUnchanged) {
  auto config = chaos_config();
  config.manager.policy.enable_splits = true;
  config.manager.policy.split_share = 0.002;
  config.manager.policy.merge_share = 0.5;
  config.manager.policy.global_high = 10.0;
  config.manager.policy.global_low = 0.0;
  config.manager.policy.local_high = 10.0;
  config.manager.policy.local_low = 0.0;
  config.manager.policy.grace = seconds(3);
  config.manager.policy.scale_out_grace = seconds(60);  // one split
  Testbed bed{config};
  elastic::Manager& manager = *bed.manager();
  auto driver = manager_load(bed, true);
  bed.run_for(seconds(6) + millis(10));
  driver->stop();
  ASSERT_TRUE(bed.run_until(
      [&] { return bed.engine().merges_completed() >= 1; }, seconds(60)));
  ASSERT_GE(manager.transitions().size(), 2u);
  EXPECT_EQ(manager.transitions().front().kind, engine::TransitionKind::kSplit);
  EXPECT_EQ(manager.transitions().back().kind, engine::TransitionKind::kMerge);
  EXPECT_EQ(manager_golden(bed, {&manager}), 0xb994b2f20c1edc76ULL);
}

// A worker goes gray (x4 NIC latency, no loss): sustained suspicion drains
// it over the migration protocol and the manager stops managing it.
TEST(ManagerGoldenTest, SuspectDrainUnchanged) {
  auto config = chaos_config();
  config.manager.recovery.detector.latency_suspect_factor = 2.0;
  config.manager.recovery.drain_suspects = true;
  config.manager.recovery.drain_after = millis(400);
  Testbed bed{config};
  elastic::Manager& manager = *bed.manager();
  auto driver = manager_load(bed, false);
  FaultSchedule schedule;
  schedule.gray_degrades.push_back(
      {bed.simulator().now() + seconds(1), {}, 0, 4.0});
  ChaosRunner chaos{bed, schedule};
  chaos.arm();
  bed.run_for(seconds(6) + millis(10));
  driver->stop();
  ASSERT_TRUE(bed.run_until(
      [&] { return !manager.drains().empty() && !manager.drain_in_progress(); },
      seconds(60)));
  ASSERT_EQ(manager.drains().size(), 1u);
  EXPECT_TRUE(manager.drains()[0].complete);
  EXPECT_EQ(manager.drains()[0].host, bed.worker_hosts()[0]);
  EXPECT_GT(manager.drains()[0].slices_moved, 0u);
  EXPECT_EQ(manager_golden(bed, {&manager}), 0xadf5a84c8b474da4ULL);
}

// A worker crashes under load and is recovered. The leader then resigns and
// a successor restarts from the coordination tree: it must not re-adopt the
// dead host, and its first evaluation scales the idle fleet in.
TEST(ManagerGoldenTest, CrashRecoveryThenRestartUnchanged) {
  auto config = chaos_config();
  config.manager.use_leader_election = true;
  Testbed bed{config};
  elastic::Manager& leader = *bed.manager();
  auto driver = manager_load(bed, false);
  FaultSchedule schedule;
  schedule.crashes.push_back(
      {bed.simulator().now() + seconds(2), 1, 0.0, SimDuration{}});
  ChaosRunner chaos{bed, schedule};
  chaos.arm();
  bed.run_for(seconds(6) + millis(10));
  driver->stop();
  await_heal(bed, leader, 1);
  await_drain(bed);

  leader.resign();
  auto successor_config = config.manager;
  successor_config.use_leader_election = false;
  elastic::Manager successor{bed.simulator(), bed.network(), bed.engine(),
                             bed.pool(),      bed.coord(),   bed.manager_host(),
                             successor_config};
  std::optional<bool> ready;
  successor.start_from_coordination([&](bool ok) { ready = ok; });
  bed.run_for(seconds(20));
  ASSERT_TRUE(ready.has_value());
  EXPECT_TRUE(*ready);
  ASSERT_EQ(leader.recoveries().size(), 1u);
  EXPECT_TRUE(leader.recoveries()[0].complete);
  const std::vector<HostId> adopted = successor.managed_hosts();
  EXPECT_EQ(std::ranges::find(adopted, bed.worker_hosts()[1]), adopted.end());
  EXPECT_GE(successor.plans_executed(), 1u);
  EXPECT_EQ(manager_golden(bed, {&leader, &successor}), 0x2548d4c70738ad3fULL);
}

// ---- manager plans -----------------------------------------------------------

// M slices at about 0.009 CPU exceed a placement cap of 0.005, so every
// one the scale-out plan moves opens a new bin past the ones the fleet was
// sized for. The manager must allocate a host for every index a move
// names; the run finishes with every publication delivered exactly once.
TEST(ManagerPlanTest, ScaleOutPastPlacementCapAllocatesEveryNamedHost) {
  auto config = chaos_config();
  config.manager.policy.global_high = 0.008;
  config.manager.policy.target = 0.005;
  config.manager.policy.global_low = 0.003;
  config.manager.policy.placement_cap = 0.005;
  config.manager.policy.local_high = 10.0;
  config.manager.policy.local_low = 0.0;
  config.manager.policy.grace = seconds(3);
  config.manager.policy.scale_out_grace = seconds(60);  // one scale-out
  Testbed bed{config};
  elastic::Manager& manager = *bed.manager();
  auto driver = manager_load(bed, true);
  bed.run_for(seconds(6) + millis(10));
  driver->stop();
  bed.run_for(seconds(15));
  await_drain(bed);
  EXPECT_FALSE(manager.plan_in_progress());
  EXPECT_GE(manager.plans_executed(), 1u);
  const auto audit = verify_exactly_once(bed);
  EXPECT_TRUE(audit.exactly_once())
      << "published=" << audit.published << " missing=" << audit.missing
      << " duplicated=" << audit.duplicated
      << " mismatched=" << audit.mismatched;
}

// A replacement policy's plan gets its protocols from the same place as the
// built-in enforcer's: every move runs the strategy select_strategy derives
// from its slice's probed signals (large M slices buffered-replay, small AP
// and EP slices stop-and-restart), and in the checked build the
// strategy-selection-deterministic invariant holds.
TEST(ManagerPlanTest, ThresholdPlanMovesUseProbedStrategy) {
  Testbed bed{chaos_config()};
  elastic::Manager& manager = *bed.manager();
  elastic::ThresholdEnforcer baseline{elastic::ThresholdPolicyConfig{
      .scale_out_above = 0.008,
      .scale_in_below = 0.003,
      .step = 1,
      .cooldown = seconds(3)}};
  // (slice, strategy derived from the planning view), in plan order.
  std::vector<std::pair<SliceId, engine::MigrationStrategyKind>> planned;
  manager.set_policy([&](const elastic::SystemView& view) {
    elastic::MigrationPlan plan = baseline.evaluate(view);
    for (const elastic::MigrationPlan::Move& mv : plan.moves) {
      for (const elastic::SliceView& s : view.slices) {
        if (s.slice != mv.slice) continue;
        planned.emplace_back(
            s.slice, elastic::select_strategy(manager.enforcer().config(),
                                              s.state_bytes, s.cpu));
      }
    }
    return plan;
  });
  auto driver = manager_load(bed, true);
  bed.run_for(seconds(6) + millis(10));
  driver->stop();
  bed.run_for(seconds(15));
  await_drain(bed);

  // Moves run in plan order; a skipped move has no report and a retried
  // one several.
  std::size_t next = 0;
  std::set<std::string_view> strategies;
  for (const engine::MigrationReport& r : manager.migrations()) {
    while (next < planned.size() && planned[next].first != r.slice) ++next;
    ASSERT_LT(next, planned.size()) << "unplanned move of slice " << r.slice;
    EXPECT_EQ(r.strategy,
              std::string_view{engine::to_string(planned[next].second)})
        << "slice " << r.slice;
    strategies.insert(r.strategy);
  }
  EXPECT_TRUE(strategies.contains("buffered-replay"));
  EXPECT_TRUE(strategies.contains("stop-and-restart"));
  const auto audit = verify_exactly_once(bed);
  EXPECT_TRUE(audit.exactly_once())
      << "published=" << audit.published << " missing=" << audit.missing
      << " duplicated=" << audit.duplicated
      << " mismatched=" << audit.mismatched;
}

// A plan's buffered-replay move loses its destination as the transfer
// starts: the source ships its frozen state to the dead host, so the abort
// leaves the slice lost on a live host, where the dead-host sweep never
// looks. The manager recovers it onto its source as part of the
// destination's recovery, and delivery stays exactly-once.
TEST(ManagerPlanTest, DestinationCrashMidTransferRecoversStrandedSlice) {
  Testbed bed{torture_config()};
  elastic::Manager& manager = *bed.manager();
  engine::Engine& e = bed.engine();
  const SliceId m0 = e.slice_id("M", 0);
  const HostId src = e.slice_host(m0);
  const HostId dst = other_m_worker(bed, m0);
  bool armed = true;
  e.on_reconfig_step([&](engine::ReconfigKind kind, std::string_view step) {
    if (armed && kind == engine::ReconfigKind::kMigration &&
        step == "transfer") {
      armed = false;
      bed.network().set_host_down(dst, true);
    }
  });
  SimTime plan_at{};
  bool planned = false;
  manager.set_policy([&](const elastic::SystemView& view) {
    elastic::MigrationPlan plan;
    if (planned || view.time < plan_at) return plan;
    planned = true;
    plan.reason = elastic::MigrationPlan::Reason::kLocalHigh;
    plan.moves.push_back(elastic::MigrationPlan::Move{m0, dst, {}});
    return plan;
  });
  auto driver = manager_load(bed, true);
  plan_at = bed.simulator().now() + seconds(2);
  bed.run_for(seconds(6) + millis(10));
  driver->stop();
  await_heal(bed, manager, 1);
  await_drain(bed);
  bed.run_for(seconds(2));

  EXPECT_FALSE(armed) << "the destination was never cut off";
  ASSERT_EQ(manager.migrations().size(), 1u);
  EXPECT_EQ(manager.migrations()[0].strategy, "buffered-replay");
  EXPECT_EQ(manager.migrations()[0].outcome,
            engine::MigrationOutcome::kAbortedDstFailed);
  EXPECT_FALSE(e.slice_lost(m0));
  EXPECT_EQ(e.slice_host(m0), src);
  ASSERT_EQ(manager.recoveries().size(), 1u);
  const elastic::RecoveryReport& recovery = manager.recoveries()[0];
  EXPECT_EQ(recovery.host, dst);
  EXPECT_TRUE(recovery.complete);
  EXPECT_NE(std::ranges::find(recovery.slices_lost, m0),
            recovery.slices_lost.end());
  const auto audit = verify_exactly_once(bed);
  EXPECT_TRUE(audit.exactly_once())
      << "published=" << audit.published << " missing=" << audit.missing
      << " duplicated=" << audit.duplicated
      << " mismatched=" << audit.mismatched;
}

}  // namespace
}  // namespace esh::harness
