#include "net/message.h"

namespace mpn {

size_t RegionValueCount(const SafeRegion& region, bool compress_tiles) {
  if (region.is_circle()) return kValuesPerCircle;
  if (!compress_tiles) return RawTileValueCount(region.tiles());
  return EncodeTileRegion(region.tiles()).ValueCount();
}

void CommAccounting::Record(MessageType t, size_t values,
                            const PacketModel& model) {
  const size_t i = static_cast<size_t>(t);
  messages_[i] += 1;
  values_[i] += values;
  packets_[i] += model.PacketsForValues(values);
}

size_t CommAccounting::TotalMessages() const {
  size_t s = 0;
  for (size_t v : messages_) s += v;
  return s;
}

size_t CommAccounting::TotalPackets() const {
  size_t s = 0;
  for (size_t v : packets_) s += v;
  return s;
}

size_t CommAccounting::TotalValues() const {
  size_t s = 0;
  for (size_t v : values_) s += v;
  return s;
}

void CommAccounting::Merge(const CommAccounting& other) {
  for (size_t i = 0; i < kMessageTypeCount; ++i) {
    messages_[i] += other.messages_[i];
    packets_[i] += other.packets_[i];
    values_[i] += other.values_[i];
  }
}

void CommAccounting::AddRaw(MessageType t, size_t messages, size_t packets,
                            size_t values) {
  const size_t i = static_cast<size_t>(t);
  messages_[i] += messages;
  packets_[i] += packets;
  values_[i] += values;
}

}  // namespace mpn
