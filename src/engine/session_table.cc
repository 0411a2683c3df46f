#include "engine/session_table.h"

#include "util/macros.h"

namespace mpn {

SessionRecord* SessionTable::Insert(std::unique_ptr<SessionRecord> record) {
  MPN_ASSERT(record != nullptr && record->session != nullptr);
  const uint32_t id = record->session->id();
  Shard& shard = shards_[id % kShards];
  const size_t slot = id / kShards;
  std::lock_guard<std::mutex> lock(shard.mu);
  if (shard.records.size() <= slot) shard.records.resize(slot + 1);
  MPN_ASSERT_MSG(shard.records[slot] == nullptr, "duplicate session id");
  shard.records[slot] = std::move(record);
  return shard.records[slot].get();
}

SessionRecord* SessionTable::Find(uint32_t id) const {
  const Shard& shard = shards_[id % kShards];
  const size_t slot = id / kShards;
  std::lock_guard<std::mutex> lock(shard.mu);
  return slot < shard.records.size() ? shard.records[slot].get() : nullptr;
}

}  // namespace mpn
