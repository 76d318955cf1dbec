// Flat id -> subscriber table of one oracle-backed M slice.
//
// OracleMatcher probes its store once per sampled match index, which makes
// the lookup the innermost loop of every oracle-driven experiment. A
// node-based std::unordered_map pays a pointer chase per probe; this table
// keeps the entries in one power-of-two array with linear probing, so a
// probe usually touches a single cache line. Erase shifts the rest of the
// probe run back instead of leaving tombstones, so lookups never slow down
// under subscribe/unsubscribe churn.
#pragma once

#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace esh::workload {

class SliceStore {
 public:
  using Entry = std::pair<SubscriptionId, SubscriberId>;

  // Inserts or overwrites. Throws std::invalid_argument for the invalid id,
  // which marks empty slots.
  void insert_or_assign(SubscriptionId id, SubscriberId subscriber);
  // True when `id` was stored.
  bool erase(SubscriptionId id);
  void clear();

  [[nodiscard]] const SubscriberId* find(SubscriptionId id) const {
    if (slots_.empty()) return nullptr;
    for (std::size_t i = home(id);; i = (i + 1) & mask()) {
      const Slot& s = slots_[i];
      if (s.id == id) return &s.subscriber;
      if (!s.id.valid()) return nullptr;
    }
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }

  // Entries in ascending id order: serialized state must not depend on
  // the table layout.
  [[nodiscard]] std::vector<Entry> sorted_entries() const;

 private:
  struct Slot {
    SubscriptionId id;  // invalid() = empty
    SubscriberId subscriber;
  };

  [[nodiscard]] std::size_t mask() const { return slots_.size() - 1; }
  [[nodiscard]] std::size_t home(SubscriptionId id) const {
    return std::hash<SubscriptionId>{}(id) & mask();
  }
  void grow();

  std::vector<Slot> slots_;  // power-of-two size, load factor <= 1/2
  std::size_t size_ = 0;
};

}  // namespace esh::workload
