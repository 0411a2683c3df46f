#include "engine/session_table.h"

#include "util/macros.h"

namespace mpn {

SessionRecord* SessionTable::Insert(std::unique_ptr<SessionRecord> record) {
  MPN_ASSERT(record != nullptr && record->session != nullptr);
  const uint32_t id = record->session->id();
  std::lock_guard<std::mutex> lock(mu_);
  if (records_.size() <= id) records_.resize(id + size_t{1});
  MPN_ASSERT_MSG(records_[id] == nullptr, "duplicate session id");
  records_[id] = std::move(record);
  return records_[id].get();
}

SessionRecord* SessionTable::Find(uint32_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return id < records_.size() ? records_[id].get() : nullptr;
}

}  // namespace mpn
