#include "pubsub/operators.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/det.hpp"
#include "common/thread_pool.hpp"

namespace esh::pubsub {

namespace {

// Stable key for modulo-hash routing.
std::uint64_t route_key(PublicationId id) { return id.value(); }
std::uint64_t route_key(SubscriptionId id) { return id.value(); }

// Runs fn(chunk, worker) for every chunk in [0, chunks): on the pool when
// one is installed and there is anything to spread, inline otherwise. The
// callers write chunk-indexed result slots, so the output is byte-identical
// either way (see the ThreadPool header's determinism contract).
void run_chunks(ThreadPool* pool, std::size_t chunks,
                const std::function<void(std::size_t, std::size_t)>& fn) {
  if (pool != nullptr && chunks > 1) {
    pool->parallel_for(chunks, fn);
    return;
  }
  for (std::size_t c = 0; c < chunks; ++c) fn(c, 0);
}

}  // namespace

// ---- SourceHandler -----------------------------------------------------------

void SourceHandler::on_event(engine::Context& ctx,
                             const engine::PayloadPtr& p) {
  if (const auto* sub = dynamic_cast<const SubscriptionPayload*>(p.get())) {
    ctx.emit(names_.ap,
             engine::Routing::hash(
                 route_key(filter::subscription_id(sub->subscription))),
             p);
    return;
  }
  if (const auto* pub = dynamic_cast<const PublicationPayload*>(p.get())) {
    ctx.emit(names_.ap,
             engine::Routing::hash(
                 route_key(filter::publication_id(pub->publication))),
             p);
    return;
  }
  if (const auto* unsub = dynamic_cast<const UnsubscriptionPayload*>(p.get())) {
    ctx.emit(names_.ap, engine::Routing::hash(route_key(unsub->id)), p);
    return;
  }
  throw std::logic_error{"SourceHandler: unexpected payload"};
}

// ---- ApHandler ----------------------------------------------------------------

const MatchingTarget& ApHandler::target_for(bool encrypted) const {
  for (const MatchingTarget& target : targets_) {
    if (target.encrypted == encrypted) return target;
  }
  throw std::logic_error{
      "ApHandler: no Matching operator deployed for this scheme"};
}

bool ApHandler::can_batch(const engine::PayloadPtr& p) const {
  return dynamic_cast<const SubscriptionPayload*>(p.get()) != nullptr ||
         dynamic_cast<const PublicationPayload*>(p.get()) != nullptr;
}

void ApHandler::on_batch_start(engine::Context& ctx,
                               const std::vector<engine::PayloadPtr>& batch) {
  // Reclaim once every outstanding plan entry was consumed; concurrent
  // batches (AP's kNone jobs overlap in simulated time) may still hold
  // unconsumed entries, which must survive this append.
  if (route_plan_consumed_ == route_plan_.size()) {
    route_plan_.clear();
    route_plan_consumed_ = 0;
  }
  const std::size_t base = route_plan_.size();
  route_plan_.resize(base + batch.size());
  // Routing decisions are pure reads of the static target table: plan them
  // off-thread in fixed-size chunks writing slot-indexed entries, so the
  // plan is identical at any worker count.
  constexpr std::size_t kRoutesPerChunk = 16;
  const std::size_t chunks =
      (batch.size() + kRoutesPerChunk - 1) / kRoutesPerChunk;
  run_chunks(pool_, chunks, [&](std::size_t chunk, std::size_t) {
    const std::size_t begin = chunk * kRoutesPerChunk;
    const std::size_t end = std::min(begin + kRoutesPerChunk, batch.size());
    for (std::size_t i = begin; i < end; ++i) {
      PlannedRoute& route = route_plan_[base + i];
      const engine::PayloadPtr& p = batch[i];
      if (const auto* sub = dynamic_cast<const SubscriptionPayload*>(p.get())) {
        const bool encrypted =
            std::holds_alternative<filter::EncryptedSubscription>(
                sub->subscription);
        route.is_publication = false;
        route.encrypted = encrypted;
        route.key = route_key(filter::subscription_id(sub->subscription));
        route.target = &target_for(encrypted);
      } else if (const auto* pub =
                     dynamic_cast<const PublicationPayload*>(p.get())) {
        const bool encrypted =
            std::holds_alternative<filter::EncryptedPublication>(
                pub->publication);
        route.is_publication = true;
        route.encrypted = encrypted;
        route.key = route_key(filter::publication_id(pub->publication));
        route.target = &target_for(encrypted);
        // Plan against the live fan, not the deploy-time slice count: a
        // prior split/merge may have resized the target operator. Pure read
        // of the routing table, safe off-thread (the simulator thread is
        // parked in the parallel_for join, so no cut-over can interleave).
        route.slices = ctx.slice_count(route.target->op_name);
        route.epoch = ctx.routing_epoch();
      } else {
        throw std::logic_error{"ApHandler: non-batchable payload in batch"};
      }
    }
  });
}

const ApHandler::PlannedRoute* ApHandler::consume_planned_route(
    bool is_publication, bool encrypted, std::uint64_t key) {
  for (PlannedRoute& route : route_plan_) {
    if (route.consumed || route.is_publication != is_publication ||
        route.encrypted != encrypted || route.key != key) {
      continue;
    }
    route.consumed = true;
    ++route_plan_consumed_;
    return &route;
  }
  return nullptr;
}

void ApHandler::on_event(engine::Context& ctx, const engine::PayloadPtr& p) {
  if (const auto* sub = dynamic_cast<const SubscriptionPayload*>(p.get())) {
    // Subscription partitioning: modulo hash over subscription identifiers
    // splits the workload into non-overlapping per-M-slice sets, within
    // the M operator handling the subscription's filtering scheme.
    const std::uint64_t key =
        route_key(filter::subscription_id(sub->subscription));
    const bool encrypted =
        std::holds_alternative<filter::EncryptedSubscription>(
            sub->subscription);
    const MatchingTarget* target;
    if (const PlannedRoute* plan = consume_planned_route(false, encrypted, key)) {
      target = plan->target;
    } else {
      // Standalone (unbatched) subscription: resolve inline -- the target
      // table is immutable, so the result is identical either way.
      target = &target_for(encrypted);
    }
    ctx.emit(target->op_name, engine::Routing::hash(key), p);
    return;
  }
  if (const auto* pub = dynamic_cast<const PublicationPayload*>(p.get())) {
    // Publications must meet every stored subscription of their scheme:
    // broadcast to all slices of that scheme's M operator.
    const std::uint64_t key = route_key(filter::publication_id(pub->publication));
    const bool encrypted =
        std::holds_alternative<filter::EncryptedPublication>(pub->publication);
    const MatchingTarget* target;
    if (const PlannedRoute* plan = consume_planned_route(true, encrypted, key)) {
      // Offloaded AP broadcasts must stay complete: the fan-out planned off
      // the simulator thread has to cover every live slice of the target
      // operator, or some M partition would silently never see the
      // publication (EP would then wait forever on its partial list). A
      // plan from an older routing epoch is exempt — the cut-over between
      // planning and commit resized the fan, and the commit-time stamp
      // below is what EP completes against.
      ESH_INVARIANT("pubsub", "ap-offload-broadcast-complete",
                    plan->epoch != ctx.routing_epoch() ||
                        plan->slices == ctx.slice_count(plan->target->op_name),
                    ::esh::contracts::Detail{}
                        .expected(ctx.slice_count(plan->target->op_name))
                        .actual(plan->slices)
                        .note("publication " + std::to_string(key)));
      target = plan->target;
    } else {
      target = &target_for(encrypted);
    }
    // Stamp the broadcast fan at the commit instant: the emit below
    // delivers to exactly these slice indices, and downstream completion
    // (EP) must collect against the fan the event was actually routed
    // with, not whatever the fan is when a partial list arrives.
    auto stamped = std::make_shared<PublicationPayload>(
        pub->publication, pub->published_at, ctx.fan_indices(target->op_name));
    ctx.emit(target->op_name, engine::Routing::broadcast(), std::move(stamped));
    return;
  }
  if (const auto* unsub = dynamic_cast<const UnsubscriptionPayload*>(p.get())) {
    // Same modulo hash as the original subscription: the removal reaches
    // exactly the slice storing it. Rare control traffic: never batched.
    ctx.emit(target_for(unsub->encrypted).op_name,
             engine::Routing::hash(route_key(unsub->id)), p);
    return;
  }
  throw std::logic_error{"ApHandler: unexpected payload"};
}

double ApHandler::cost_units(const engine::PayloadPtr& p) const {
  if (const auto* pub = dynamic_cast<const PublicationPayload*>(p.get())) {
    const bool encrypted = std::holds_alternative<filter::EncryptedPublication>(
        pub->publication);
    return cost_.ap_route_units *
           static_cast<double>(target_for(encrypted).slices);
  }
  return cost_.ap_route_units;
}

// ---- MHandler ------------------------------------------------------------------

bool MHandler::can_batch(const engine::PayloadPtr& p) const {
  return dynamic_cast<const PublicationPayload*>(p.get()) != nullptr;
}

void MHandler::on_batch_start(engine::Context& ctx,
                              const std::vector<engine::PayloadPtr>& batch) {
  (void)ctx;
  std::vector<filter::AnyPublication> pubs;
  pubs.reserve(batch.size());
  for (const engine::PayloadPtr& p : batch) {
    const auto* pub = dynamic_cast<const PublicationPayload*>(p.get());
    if (pub == nullptr) {
      throw std::logic_error{"MHandler: non-publication in batch"};
    }
    pubs.push_back(pub->publication);
  }
  std::vector<filter::MatchOutcome> outcomes = matcher_->match_batch(pubs);
  precomputed_.clear();
  for (std::size_t i = 0; i < pubs.size(); ++i) {
    precomputed_.emplace_back(filter::publication_id(pubs[i]),
                              std::move(outcomes[i]));
  }
}

void MHandler::on_event(engine::Context& ctx, const engine::PayloadPtr& p) {
  if (const auto* sub = dynamic_cast<const SubscriptionPayload*>(p.get())) {
    matcher_->add(sub->subscription);
    return;
  }
  if (const auto* unsub = dynamic_cast<const UnsubscriptionPayload*>(p.get())) {
    (void)matcher_->remove(unsub->id);  // unknown ids are ignored
    return;
  }
  if (const auto* pub = dynamic_cast<const PublicationPayload*>(p.get())) {
    filter::MatchOutcome outcome;
    const PublicationId pub_id = filter::publication_id(pub->publication);
    if (!precomputed_.empty() && precomputed_.front().first == pub_id) {
      outcome = std::move(precomputed_.front().second);
      precomputed_.pop_front();
    } else {
      // Standalone (unbatched) publication, or a batch consumed out of
      // order: the store is unchanged since on_batch_start, so the scalar
      // result is identical either way.
      outcome = matcher_->match(pub->publication);
    }
    auto list = std::make_shared<MatchListPayload>();
    list->publication = filter::publication_id(pub->publication);
    list->m_slice_index = slice_index_;
    // The completion target is the fan the publication was broadcast with
    // (pinned at AP emit time), not the operator's current slice count: a
    // split/merge cut-over between broadcast and match must not change how
    // many partial lists EP waits for.
    list->fan_indices = pub->fan_indices;
    list->expected_lists =
        pub->fan_indices.empty()
            ? static_cast<std::uint32_t>(ctx.slice_count(own_op_))
            : static_cast<std::uint32_t>(pub->fan_indices.size());
    // A partial list labeled with a slice index outside the broadcast fan
    // would either be dropped by EP's dedup or inflate the completeness
    // count.
    [[maybe_unused]] const bool in_fan =
        pub->fan_indices.empty()
            ? slice_index_ < list->expected_lists
            : std::find(pub->fan_indices.begin(), pub->fan_indices.end(),
                        slice_index_) != pub->fan_indices.end();
    ESH_INVARIANT("pubsub", "m-slice-in-fan", in_fan,
                  ::esh::contracts::Detail{}
                      .expected("member of the broadcast fan")
                      .actual(slice_index_)
                      .note("publication " +
                            std::to_string(list->publication.value())));
    list->subscribers = std::move(outcome.subscribers);
    list->published_at = pub->published_at;
    const auto routing = engine::Routing::hash(route_key(list->publication));
    ctx.emit(names_.ep, routing, std::move(list));
    return;
  }
  throw std::logic_error{"MHandler: unexpected payload"};
}

double MHandler::cost_units(const engine::PayloadPtr& p) const {
  if (dynamic_cast<const PublicationPayload*>(p.get()) != nullptr) {
    return cost_.m_fixed_units + matcher_->estimate_match_units();
  }
  return 4.0;  // subscription insertion
}

std::size_t MHandler::split_state(const KeyCoverage& cov, BinaryWriter& w) {
  [[maybe_unused]] const std::size_t before = matcher_->subscription_count();
  const std::size_t moved = matcher_->split_state(cov, w);
  // Conservation: every subscription either stayed or was serialized for
  // the child — a split must not drop or duplicate stored state.
  ESH_INVARIANT("pubsub", "split-state-conserved",
                matcher_->subscription_count() + moved == before,
                ::esh::contracts::Detail{}
                    .expected(before)
                    .actual(matcher_->subscription_count() + moved)
                    .note("subscriptions before vs. retained + moved"));
  return moved;
}

void MHandler::absorb_state(BinaryReader& r) { matcher_->absorb_state(r); }

cluster::LockMode MHandler::lock_mode(const engine::PayloadPtr& p) const {
  // Matching only reads the subscription store: R lock, so one slice's
  // matches parallelize across the host's cores (paper §III).
  if (dynamic_cast<const PublicationPayload*>(p.get()) != nullptr) {
    return cluster::LockMode::kRead;
  }
  return cluster::LockMode::kWrite;
}

// ---- EpHandler -----------------------------------------------------------------

namespace {

// True when `lists_from` covers the completion target of `list`: the
// broadcast fan stamped on the publication at AP emit time when present,
// the dense 0..expected-1 range otherwise (legacy / never-split payloads).
bool lists_complete(const std::set<std::uint32_t>& lists_from,
                    const MatchListPayload& list, std::size_t fallback) {
  if (!list.fan_indices.empty()) {
    for (const std::uint32_t index : list.fan_indices) {
      if (!lists_from.contains(index)) return false;
    }
    return true;
  }
  const std::uint32_t expected =
      list.expected_lists > 0 ? list.expected_lists
                              : static_cast<std::uint32_t>(fallback);
  return lists_from.size() >= expected;
}

}  // namespace

bool EpHandler::can_batch(const engine::PayloadPtr& p) const {
  return dynamic_cast<const MatchListPayload*>(p.get()) != nullptr;
}

void EpHandler::on_batch_start(engine::Context& ctx,
                               const std::vector<engine::PayloadPtr>& batch) {
  (void)ctx;
  // EP's write jobs serialize in submission order and a batch's jobs are
  // submitted back to back, so the previous batch fully committed: any
  // leftover plan would mean a dropped mid-batch slice (retired by a host
  // failure), in which case this handler never runs again anyway.
  merge_plan_.clear();
  planned_complete_.clear();

  // Serial shadow walk (simulator thread, bookkeeping only): replay the
  // batch's dedup and completeness logic against the live state without
  // mutating it, to learn which publications the batch completes and which
  // arriving lists contribute to each merge, in arrival order.
  struct ShadowPending {
    std::set<std::uint32_t> lists_from;
    std::vector<const MatchListPayload*> arriving;
  };
  std::unordered_map<PublicationId, ShadowPending> shadow;
  struct Completion {
    PublicationId pub{};
    const std::vector<SubscriberId>* prefix = nullptr;  // live pending list
    std::vector<const MatchListPayload*> lists;
  };
  std::vector<Completion> completions;
  for (const engine::PayloadPtr& p : batch) {
    const auto* list = dynamic_cast<const MatchListPayload*>(p.get());
    if (list == nullptr) {
      throw std::logic_error{"EpHandler: non-list payload in batch"};
    }
    const PublicationId pub = list->publication;
    if (completed_.contains(pub) || planned_complete_.contains(pub)) continue;
    auto [it, inserted] = shadow.try_emplace(pub);
    ShadowPending& shadow_pending = it->second;
    if (inserted) {
      if (const auto live = pending_.find(pub); live != pending_.end()) {
        shadow_pending.lists_from = live->second.lists_from;
      }
    }
    if (!shadow_pending.lists_from.insert(list->m_slice_index).second) {
      continue;
    }
    shadow_pending.arriving.push_back(list);
    if (!lists_complete(shadow_pending.lists_from, *list, m_slices_)) continue;
    Completion completion;
    completion.pub = pub;
    if (const auto live = pending_.find(pub); live != pending_.end()) {
      completion.prefix = &live->second.subscribers;
    }
    completion.lists = std::move(shadow_pending.arriving);
    completions.push_back(std::move(completion));
    planned_complete_.insert(pub);
  }
  if (completions.empty()) return;

  // Merge assembly is pure compute over immutable inputs (the live pending
  // prefix and the batch payloads): fan one chunk per completing
  // publication across the pool, each writing its own plan slot and
  // concatenating in arrival order, so every merged list is byte-identical
  // to the serial per-event appends. The per-event on_event calls commit
  // them on the simulator thread in the serial completion order.
  merge_plan_.resize(completions.size());
  run_chunks(pool_, completions.size(), [&](std::size_t c, std::size_t) {
    const Completion& completion = completions[c];
    PlannedMerge& plan = merge_plan_[c];
    plan.pub = completion.pub;
    std::size_t total =
        completion.prefix != nullptr ? completion.prefix->size() : 0;
    for (const MatchListPayload* list : completion.lists) {
      total += list->subscribers.size();
    }
    plan.merged.reserve(total);
    if (completion.prefix != nullptr) {
      plan.merged.insert(plan.merged.end(), completion.prefix->begin(),
                         completion.prefix->end());
    }
    for (const MatchListPayload* list : completion.lists) {
      plan.merged.insert(plan.merged.end(), list->subscribers.begin(),
                         list->subscribers.end());
    }
  });
}

void EpHandler::on_event(engine::Context& ctx, const engine::PayloadPtr& p) {
  const auto* list = dynamic_cast<const MatchListPayload*>(p.get());
  if (list == nullptr) {
    throw std::logic_error{"EpHandler: unexpected payload"};
  }
  // EP is the exactly-once boundary (the paper's Exit Point): recovery
  // replays deliver partial lists at-least-once below it, so lists of
  // already-notified publications and duplicate per-M-slice lists must be
  // absorbed here.
  if (completed_.contains(list->publication)) return;
  // Each publication is filtered by exactly one scheme's M operator; its
  // completion target arrives with every partial list: the broadcast fan
  // pinned at AP emit time (falls back to a dense count for legacy /
  // never-split payloads).
  [[maybe_unused]] const bool in_fan =
      list->fan_indices.empty()
          ? list->m_slice_index < (list->expected_lists > 0
                                       ? list->expected_lists
                                       : static_cast<std::uint32_t>(m_slices_))
          : std::find(list->fan_indices.begin(), list->fan_indices.end(),
                      list->m_slice_index) != list->fan_indices.end();
  ESH_PRECONDITION("pubsub", "ep-list-in-fan", in_fan,
                   ::esh::contracts::Detail{}
                       .expected("member of the broadcast fan")
                       .actual(list->m_slice_index)
                       .note("publication " +
                             std::to_string(list->publication.value())));
  const std::size_t fan_size =
      list->fan_indices.empty()
          ? (list->expected_lists > 0 ? list->expected_lists
                                      : static_cast<std::uint32_t>(m_slices_))
          : list->fan_indices.size();
  Pending& pending = pending_[list->publication];
  pending.published_at = list->published_at;
  if (!pending.lists_from.insert(list->m_slice_index).second) return;
  // Publications completing inside the current batch already have their
  // full merge precomputed (on_batch_start); appending here too would
  // duplicate their subscribers.
  const bool planned = planned_complete_.contains(list->publication);
  if (!planned) {
    // The first partial list sizes the merge for the whole fan (with a
    // quarter of slack for the spread between lists), so the lists that
    // follow append without regrowing it.
    if (pending.lists_from.size() == 1) {
      const std::size_t n = list->subscribers.size();
      pending.subscribers.reserve(fan_size * (n + n / 4));
    }
    pending.subscribers.insert(pending.subscribers.end(),
                               list->subscribers.begin(),
                               list->subscribers.end());
  }
  if (!lists_complete(pending.lists_from, *list, m_slices_)) return;

  // AP broadcast completeness: every collected index passed the fan
  // membership precondition and the full fan is covered, so set equality
  // reduces to a size check (dense fallback: `expected` distinct indices,
  // each below `expected`, is exactly {0 .. expected-1}).
  ESH_INVARIANT("pubsub", "ap-broadcast-complete",
                pending.lists_from.size() == fan_size &&
                    (!list->fan_indices.empty() ||
                     *pending.lists_from.rbegin() < fan_size),
                ::esh::contracts::Detail{}
                    .expected(fan_size)
                    .actual(pending.lists_from.size())
                    .note("publication " +
                          std::to_string(list->publication.value())));
  if (planned) {
    // Commit the precomputed parallel merge. The plan was laid down in the
    // serial completion order of the batch, and EP's W-serialized FIFO
    // replays the batch in exactly that order, so the first unconsumed slot
    // must be this publication -- anything else means the off-thread merges
    // would commit in a different order than serial processing.
    std::size_t next = 0;
    while (next < merge_plan_.size() && merge_plan_[next].consumed) ++next;
    std::size_t found = next;
    while (found < merge_plan_.size() &&
           !(merge_plan_[found].pub == list->publication &&
             !merge_plan_[found].consumed)) {
      ++found;
    }
    ESH_INVARIANT("pubsub", "ep-offload-merge-ordered",
                  found == next && found < merge_plan_.size(),
                  ::esh::contracts::Detail{}
                      .expected(next < merge_plan_.size()
                                    ? "plan slot " + std::to_string(next) +
                                          " (publication " +
                                          std::to_string(
                                              merge_plan_[next].pub.value()) +
                                          ")"
                                    : std::string("plan drained"))
                      .actual("publication " +
                              std::to_string(list->publication.value()))
                      .note("parallel merge commit out of plan order"));
    if (found < merge_plan_.size()) {
      pending.subscribers = std::move(merge_plan_[found].merged);
      merge_plan_[found].consumed = true;
    }
    planned_complete_.erase(list->publication);
  }
  complete_publication(ctx, list->publication, std::move(pending));
}

void EpHandler::complete_publication(engine::Context& ctx, PublicationId pub,
                                     Pending pending) {
  auto notification = std::make_shared<NotificationPayload>();
  notification->publication = pub;
  notification->subscribers = std::move(pending.subscribers);
  notification->published_at = pending.published_at;
  // EP exactly-once: a publication enters the completed set precisely once;
  // a second dispatch would double-notify its subscribers.
  [[maybe_unused]] const bool first_dispatch = completed_.insert(pub).second;
  ESH_INVARIANT("pubsub", "ep-exactly-once", first_dispatch,
                ::esh::contracts::Detail{}
                    .expected("first dispatch")
                    .actual("already completed")
                    .note("publication " + std::to_string(pub.value())));
  pending_.erase(pub);
  const auto routing =
      engine::Routing::hash(route_key(notification->publication));
  ctx.emit(names_.sink, routing, std::move(notification));
}

double EpHandler::cost_units(const engine::PayloadPtr& p) const {
  const auto* list = dynamic_cast<const MatchListPayload*>(p.get());
  if (list == nullptr) return 1.0;
  const auto ids = static_cast<double>(list->subscribers.size());
  // Merge cost plus this partial list's share of the notification sends.
  return cost_.ep_list_units + ids * (cost_.ep_merge_units_per_id +
                                      cost_.ep_notify_units_per_id);
}

void EpHandler::serialize_state(BinaryWriter& w) const {
  w.write_u64(pending_.size());
  // Sorted: checkpoint bytes must not depend on hash-table layout.
  for (const PublicationId pub : sorted_keys(pending_)) {
    const Pending& pending = pending_.at(pub);
    w.write_id(pub);
    w.write_u64(pending.lists_from.size());
    for (std::uint32_t m : pending.lists_from) w.write_u32(m);
    w.write_i64(pending.published_at.count());
    w.write_u64(pending.subscribers.size());
    for (SubscriberId s : pending.subscribers) w.write_id(s);
  }
  w.write_u64(completed_.size());
  for (PublicationId pub : completed_) w.write_id(pub);
}

void EpHandler::restore_state(BinaryReader& r) {
  pending_.clear();
  completed_.clear();
  merge_plan_.clear();
  planned_complete_.clear();
  const auto n = r.read_u64();
  for (std::uint64_t i = 0; i < n; ++i) {
    const auto pub = r.read_id<PublicationTag>();
    Pending pending;
    const auto lists = r.read_u64();
    for (std::uint64_t j = 0; j < lists; ++j) {
      pending.lists_from.insert(r.read_u32());
    }
    pending.published_at = SimTime{r.read_i64()};
    const auto count = r.read_u64();
    pending.subscribers.reserve(count);
    for (std::uint64_t j = 0; j < count; ++j) {
      pending.subscribers.push_back(r.read_id<SubscriberTag>());
    }
    pending_.emplace(pub, std::move(pending));
  }
  const auto done = r.read_u64();
  for (std::uint64_t i = 0; i < done; ++i) {
    completed_.insert(r.read_id<PublicationTag>());
  }
}

std::size_t EpHandler::state_bytes() const {
  std::size_t total = 16;
  // lint:allow(unordered-iteration): order-free sum
  for (const auto& [pub, pending] : pending_) {
    total += 32 + pending.subscribers.size() * sizeof(SubscriberId);
  }
  total += completed_.size() * sizeof(PublicationId);
  return total;
}

// ---- SinkHandler ----------------------------------------------------------------

void SinkHandler::on_event(engine::Context& ctx, const engine::PayloadPtr& p) {
  const auto* n = dynamic_cast<const NotificationPayload*>(p.get());
  if (n == nullptr) {
    throw std::logic_error{"SinkHandler: unexpected payload"};
  }
  // A recovered EP slice regenerates notifications it had already sent;
  // each publication is measured once.
  if (!seen_.insert(n->publication).second) return;
  collector_->record(ctx.now(), ctx.now() - n->published_at,
                     n->subscribers.size());
  collector_->record_delivery(n->publication, n->subscribers);
}

void SinkHandler::serialize_state(BinaryWriter& w) const {
  w.write_u64(seen_.size());
  for (PublicationId pub : seen_) w.write_id(pub);
}

void SinkHandler::restore_state(BinaryReader& r) {
  seen_.clear();
  const auto n = r.read_u64();
  for (std::uint64_t i = 0; i < n; ++i) {
    seen_.insert(r.read_id<PublicationTag>());
  }
}

std::size_t SinkHandler::state_bytes() const {
  return 16 + seen_.size() * sizeof(PublicationId);
}

double SinkHandler::cost_units(const engine::PayloadPtr& p) const {
  const auto* n = dynamic_cast<const NotificationPayload*>(p.get());
  return 1.0 + (n != nullptr
                    ? 0.05 * static_cast<double>(n->subscribers.size())
                    : 0.0);
}

}  // namespace esh::pubsub
