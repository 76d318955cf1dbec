#include "workload/slice_store.hpp"

#include <algorithm>
#include <stdexcept>

namespace esh::workload {

namespace {
constexpr std::size_t kMinCapacity = 16;
}  // namespace

void SliceStore::insert_or_assign(SubscriptionId id, SubscriberId subscriber) {
  if (!id.valid()) {
    throw std::invalid_argument{"SliceStore: invalid subscription id"};
  }
  if (2 * (size_ + 1) > slots_.size()) grow();
  std::size_t i = home(id);
  while (slots_[i].id.valid() && slots_[i].id != id) i = (i + 1) & mask();
  if (!slots_[i].id.valid()) {
    slots_[i].id = id;
    ++size_;
  }
  slots_[i].subscriber = subscriber;
}

bool SliceStore::erase(SubscriptionId id) {
  if (slots_.empty() || !id.valid()) return false;
  std::size_t hole = home(id);
  while (slots_[hole].id != id) {
    if (!slots_[hole].id.valid()) return false;
    hole = (hole + 1) & mask();
  }
  // Backward shift: walk the rest of the probe run and move back every
  // entry whose home slot does not lie cyclically in (hole, j], so no
  // lookup ever has to step over an empty slot to reach its entry.
  for (std::size_t j = (hole + 1) & mask(); slots_[j].id.valid();
       j = (j + 1) & mask()) {
    const std::size_t from_home = (j - home(slots_[j].id)) & mask();
    const std::size_t from_hole = (j - hole) & mask();
    if (from_home >= from_hole) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole] = Slot{};
  --size_;
  return true;
}

void SliceStore::clear() {
  std::fill(slots_.begin(), slots_.end(), Slot{});
  size_ = 0;
}

std::vector<SliceStore::Entry> SliceStore::sorted_entries() const {
  std::vector<Entry> entries;
  entries.reserve(size_);
  for (const Slot& s : slots_) {
    if (s.id.valid()) entries.emplace_back(s.id, s.subscriber);
  }
  std::sort(entries.begin(), entries.end());
  return entries;
}

void SliceStore::grow() {
  std::vector<Slot> old =
      std::exchange(slots_, std::vector<Slot>(
                                std::max(kMinCapacity, 2 * slots_.size())));
  for (const Slot& s : old) {
    if (!s.id.valid()) continue;
    std::size_t i = home(s.id);
    while (slots_[i].id.valid()) i = (i + 1) & mask();
    slots_[i] = s;
  }
}

}  // namespace esh::workload
