#include "cluster/host.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/contracts.hpp"

namespace esh::cluster {

Host::Host(sim::Simulator& simulator, HostId id, HostSpec spec)
    : simulator_(simulator), id_(id), spec_(spec), free_cores_(spec.cores) {
  if (spec.cores <= 0 || spec.units_per_second <= 0.0) {
    throw std::invalid_argument{"Host: cores and capacity must be positive"};
  }
}

void Host::submit(SliceId slice, LockMode mode, double cost_units,
                  std::function<void()> on_complete) {
  if (cost_units < 0.0) {
    throw std::invalid_argument{"Host::submit: negative cost"};
  }
  auto& sched = slices_[slice];
  sched.queue.push_back(Job{slice, mode, cost_units, std::move(on_complete)});
  ++queued_jobs_;
  if (!in_ready_[slice]) {
    ready_.push_back(slice);
    in_ready_[slice] = true;
  }
  dispatch();
}

void Host::dispatch() {
  // Fair round-robin over slices with queued work: after a slice receives
  // a core it moves to the back of the ready list, so slices sharing a
  // host progress at the same rate (vital for the EP operator, which
  // awaits the *slowest* M slice's partial list for every publication).
  // A slice whose head job is blocked by its lock is skipped in place.
  while (free_cores_ > 0 && !ready_.empty()) {
    bool dispatched = false;
    for (auto it = ready_.begin(); it != ready_.end();) {
      const SliceId slice = *it;
      auto& sched = slices_[slice];
      if (sched.queue.empty()) {
        in_ready_[slice] = false;
        it = ready_.erase(it);
        continue;
      }
      if (!try_dispatch_slice(slice, sched)) {
        ++it;  // blocked by its slice lock; keep its turn position
        continue;
      }
      dispatched = true;
      if (sched.queue.empty()) {
        in_ready_[slice] = false;
        ready_.erase(it);
      } else {
        // Move to the back: next core goes to a sibling slice first.
        ready_.splice(ready_.end(), ready_, it);
      }
      break;  // rescan from the front with the updated order
    }
    if (!dispatched) break;
  }
}

bool Host::try_dispatch_slice(SliceId slice, SliceSched& sched) {
  const Job& head = sched.queue.front();
  switch (head.mode) {
    case LockMode::kNone:
      break;
    case LockMode::kRead:
      if (sched.running_write) return false;
      break;
    case LockMode::kWrite:
      if (sched.running_write || sched.running_read > 0) return false;
      break;
  }
  ESH_INVARIANT("cluster", "queued-jobs-accounting", queued_jobs_ > 0,
                ::esh::contracts::Detail{}
                    .host(id_)
                    .slice(slice)
                    .expected("queued_jobs > 0")
                    .actual(queued_jobs_));
  Job job = std::move(sched.queue.front());
  sched.queue.pop_front();
  --queued_jobs_;
  if (job.mode == LockMode::kRead) ++sched.running_read;
  if (job.mode == LockMode::kWrite) sched.running_write = true;
  start_job(slice, std::move(job));
  return true;
}

SimDuration Host::job_duration(double cost_units) const {
  const double us = cost_units * 1e6 / spec_.units_per_second;
  return micros(static_cast<std::int64_t>(us));
}

void Host::start_job(SliceId slice, Job job) {
  // Core capacity never goes negative: dispatch() only starts jobs while
  // free_cores_ > 0, so the decrement below cannot underflow.
  ESH_INVARIANT("cluster", "core-capacity-nonnegative", free_cores_ > 0,
                ::esh::contracts::Detail{}
                    .host(id_)
                    .slice(slice)
                    .expected("free_cores > 0")
                    .actual(free_cores_));
  --free_cores_;
  ++running_jobs_;
  const std::uint64_t job_id = next_job_id_++;
  const SimDuration duration = job_duration(job.cost_units);
  running_[job_id] = {simulator_.now(), slice};
  const LockMode mode = job.mode;
  simulator_.schedule(
      duration,
      [this, job_id, slice, mode, on_complete = std::move(job.on_complete),
       duration]() mutable {
        ++free_cores_;
        --running_jobs_;
        ESH_INVARIANT("cluster", "core-capacity-bounded",
                      free_cores_ <= spec_.cores,
                      ::esh::contracts::Detail{}
                          .host(id_)
                          .expected(spec_.cores)
                          .actual(free_cores_)
                          .note("job completion released a core twice"));
        running_.erase(job_id);
        auto& sched = slices_[slice];
        if (mode == LockMode::kRead) --sched.running_read;
        if (mode == LockMode::kWrite) sched.running_write = false;
        const auto busy = static_cast<double>(duration.count());
        busy_core_us_ += busy;
        sched.busy_core_us += busy;
        // Completion may submit follow-up work; dispatch first so freed
        // capacity is reused before the callback's submissions queue up.
        dispatch();
        if (on_complete) on_complete();
        dispatch();
      });
}

double Host::slice_busy_core_us(SliceId slice) const {
  auto it = slices_.find(slice);
  return it == slices_.end() ? 0.0 : it->second.busy_core_us;
}

double Host::busy_core_us_now() const {
  double busy = busy_core_us_;
  const SimTime now = simulator_.now();
  // lint:allow(unordered-iteration): order-free sum
  for (const auto& [job_id, entry] : running_) {
    busy += static_cast<double>((now - entry.first).count());
  }
  return busy;
}

double Host::slice_busy_core_us_now(SliceId slice) const {
  double busy = slice_busy_core_us(slice);
  const SimTime now = simulator_.now();
  // lint:allow(unordered-iteration): order-free sum
  for (const auto& [job_id, entry] : running_) {
    if (entry.second == slice) {
      busy += static_cast<double>((now - entry.first).count());
    }
  }
  return busy;
}

double Host::utilization(double busy_at_window_start_us,
                         SimDuration window) const {
  if (window <= SimDuration::zero()) return 0.0;
  const double busy = busy_core_us_now() - busy_at_window_start_us;
  const double capacity = static_cast<double>(spec_.cores) *
                          static_cast<double>(window.count());
  return std::clamp(busy / capacity, 0.0, 1.0);
}

void Host::forget_slice(SliceId slice) {
  auto it = slices_.find(slice);
  if (it == slices_.end()) return;
  if (!it->second.queue.empty() || it->second.running_read > 0 ||
      it->second.running_write) {
    throw std::logic_error{"Host::forget_slice: slice still has work"};
  }
  slices_.erase(it);
  in_ready_.erase(slice);
  ready_.remove(slice);
}

bool Host::has_pending_work(SliceId slice) const {
  auto it = slices_.find(slice);
  if (it == slices_.end()) return false;
  if (!it->second.queue.empty() || it->second.running_read > 0 ||
      it->second.running_write) {
    return true;
  }
  // lint:allow(unordered-iteration): order-free any-of scan
  for (const auto& [job_id, entry] : running_) {
    if (entry.second == slice) return true;
  }
  return false;
}

}  // namespace esh::cluster
