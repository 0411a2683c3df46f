#include "engine/session_table.h"

#include <algorithm>
#include <new>

#include "util/macros.h"

namespace mpn {

SessionTable::Block::~Block() {
  for (size_t i = 0; i < kBlockRecords; ++i) {
    if (inserted[i]) slots[i].record.~SessionRecord();
  }
}

const Trajectory* const* SessionTable::AppendGroupLocked(
    const std::vector<const Trajectory*>& group) {
  const size_t n = group.size();
  if (arena_capacity_ - arena_used_ < n) {
    const size_t capacity = std::max(n, kArenaChunk);
    arena_.push_back(std::unique_ptr<const Trajectory*[]>(
        new const Trajectory*[capacity]));
    arena_capacity_ = capacity;
    arena_used_ = 0;
  }
  const Trajectory** start = arena_.back().get() + arena_used_;
  std::copy(group.begin(), group.end(), start);
  arena_used_ += n;
  return start;
}

SessionRecord* SessionTable::Insert(
    std::unique_ptr<GroupSession> session,
    const std::vector<const Trajectory*>& group, const SessionTuning& tuning) {
  MPN_ASSERT(session != nullptr);
  MPN_ASSERT(group.size() <= std::numeric_limits<uint32_t>::max());
  const uint32_t id = session->id();
  const size_t b = id / kBlockRecords;
  const size_t i = id % kBlockRecords;
  std::lock_guard<std::mutex> lock(mu_);
  if (blocks_.size() <= b) blocks_.resize(b + 1);
  if (blocks_[b] == nullptr) blocks_[b] = std::make_unique<Block>();
  Block& block = *blocks_[b];
  MPN_ASSERT_MSG(!block.inserted[i], "duplicate session id");
  SessionRecord* r = new (&block.slots[i].record)
      SessionRecord(id, AppendGroupLocked(group),
                    static_cast<uint32_t>(group.size()), tuning,
                    std::move(session));
  block.inserted[i] = true;
  return r;
}

SessionRecord* SessionTable::Find(uint32_t id) const {
  const size_t b = id / kBlockRecords;
  const size_t i = id % kBlockRecords;
  std::lock_guard<std::mutex> lock(mu_);
  if (b >= blocks_.size() || blocks_[b] == nullptr) return nullptr;
  Block& block = *blocks_[b];
  return block.inserted[i] ? &block.slots[i].record : nullptr;
}

}  // namespace mpn
