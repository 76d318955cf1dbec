// Emulated host: a fixed number of cores executing submitted jobs on the
// simulated clock. Reproduces the STREAMMINE3G execution model (paper
// §III): each host runs a thread pool sized to its cores; a slice's
// read-locked work (e.g. matching) can occupy several cores in parallel,
// while read/write-locked work (e.g. subscription insertion, state
// serialization) is exclusive per slice.
//
// CPU utilization emerges from accounting of busy core-time, which feeds
// the probes consumed by the elasticity enforcer.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <unordered_map>

#include "common/types.hpp"
#include "sim/simulator.hpp"

namespace esh::cluster {

// Synchronization mode of a job with respect to its slice's state,
// mirroring STREAMMINE3G's R / R/W slice locks.
enum class LockMode {
  kNone,   // no slice state touched; never serialized
  kRead,   // shared: concurrent with other kRead jobs of the same slice
  kWrite,  // exclusive: waits for all jobs of the slice, blocks all others
};

struct HostSpec {
  int cores = 8;
  // Work units one core executes per second. With the default, one unit is
  // one microsecond of reference-core time.
  double units_per_second = 1e6;
};

class Host {
 public:
  Host(sim::Simulator& simulator, HostId id, HostSpec spec = {});
  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  [[nodiscard]] HostId id() const { return id_; }
  [[nodiscard]] const HostSpec& spec() const { return spec_; }

  // Submits a job costing `cost_units` of single-core work, belonging to
  // `slice` (which scopes the lock), to run when a core and the lock are
  // available. Jobs of the same slice dispatch in submission order.
  // `on_complete` runs when the job finishes. Use SliceId::invalid() with
  // LockMode::kNone for slice-less work.
  void submit(SliceId slice, LockMode mode, double cost_units,
              std::function<void()> on_complete);

  // Total busy core-microseconds since construction (monotone).
  [[nodiscard]] double busy_core_us() const { return busy_core_us_; }

  // Busy core-microseconds attributed to one slice.
  [[nodiscard]] double slice_busy_core_us(SliceId slice) const;

  // Utilization (0..1) over a window ending now, given the busy counter
  // sampled at the window start. Includes partially-finished running jobs.
  [[nodiscard]] double utilization(double busy_at_window_start_us,
                                   SimDuration window) const;

  // Busy counter including the elapsed part of currently-running jobs;
  // use this to sample utilization windows.
  [[nodiscard]] double busy_core_us_now() const;
  [[nodiscard]] double slice_busy_core_us_now(SliceId slice) const;

  [[nodiscard]] int running_jobs() const { return running_jobs_; }
  [[nodiscard]] std::size_t queued_jobs() const { return queued_jobs_; }

  // Removes per-slice accounting after a slice migrates away. Requires the
  // slice to have no queued or running jobs.
  void forget_slice(SliceId slice);

  [[nodiscard]] bool has_pending_work(SliceId slice) const;

 private:
  struct Job {
    SliceId slice;
    LockMode mode;
    double cost_units;
    std::function<void()> on_complete;
  };

  struct SliceSched {
    std::deque<Job> queue;
    int running_read = 0;
    bool running_write = false;
    double busy_core_us = 0.0;
  };

  void dispatch();
  bool try_dispatch_slice(SliceId slice, SliceSched& sched);
  void start_job(SliceId slice, Job job);
  [[nodiscard]] SimDuration job_duration(double cost_units) const;

  sim::Simulator& simulator_;
  HostId id_;
  HostSpec spec_;
  int free_cores_;
  int running_jobs_ = 0;
  std::size_t queued_jobs_ = 0;
  double busy_core_us_ = 0.0;
  std::unordered_map<SliceId, SliceSched> slices_;
  // Round-robin order of slices with queued work (no duplicates).
  std::list<SliceId> ready_;
  std::unordered_map<SliceId, bool> in_ready_;
  // Live accounting of running jobs: (start time, slice) per running job id.
  std::unordered_map<std::uint64_t, std::pair<SimTime, SliceId>> running_;
  std::uint64_t next_job_id_ = 1;
};

}  // namespace esh::cluster
