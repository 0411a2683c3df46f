// Communication cost model (Section 7.1 "Measures" and Fig. 3 protocol).
//
// The server and the clients exchange three kinds of messages. Costs are
// measured in TCP packets: with a 576-byte MTU and a 40-byte header, a
// packet carries (576-40)/8 = 67 double-precision values. Shapes cost
// 3 values per circle, 3 per square, 4 per rectangle; a location is 2
// values. Tile regions are shipped with the lossless encoding of
// mpn/compress.h.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "mpn/compress.h"
#include "mpn/safe_region.h"

namespace mpn {

/// Message kinds of the Fig. 3 protocol.
enum class MessageType : int {
  kLocationUpdate = 0,  ///< step 1: triggering user -> server
  kProbe = 1,           ///< step 2: server -> other users
  kProbeReply = 2,      ///< step 2: other users -> server
  kResult = 3,          ///< step 3: server -> each user (po + safe region)
};

/// Number of distinct message types.
inline constexpr size_t kMessageTypeCount = 4;

/// Values (8-byte slots) per shape.
inline constexpr size_t kValuesPerPoint = 2;
inline constexpr size_t kValuesPerCircle = 3;
inline constexpr size_t kValuesPerSquare = 3;
inline constexpr size_t kValuesPerRect = 4;
/// Heading + learned deviation shipped with location reports (enables the
/// directed ordering at the server).
inline constexpr size_t kValuesPerMotionHint = 2;

/// The packet size model.
struct PacketModel {
  size_t mtu_bytes = 576;
  size_t header_bytes = 40;
  size_t value_bytes = 8;

  /// Values that fit in one packet (67 under the defaults).
  size_t ValuesPerPacket() const {
    return (mtu_bytes - header_bytes) / value_bytes;
  }

  /// Packets needed for a message carrying `values` values (min. 1: even an
  /// empty probe occupies a packet).
  size_t PacketsForValues(size_t values) const {
    const size_t vpp = ValuesPerPacket();
    return values == 0 ? 1 : (values + vpp - 1) / vpp;
  }
};

/// Value count for shipping a safe region.
size_t RegionValueCount(const SafeRegion& region, bool compress_tiles);

/// Per-type message/packet/value counters.
class CommAccounting {
 public:
  /// Records one message of `values` values.
  void Record(MessageType t, size_t values, const PacketModel& model);

  size_t messages(MessageType t) const {
    return messages_[static_cast<size_t>(t)];
  }
  size_t packets(MessageType t) const {
    return packets_[static_cast<size_t>(t)];
  }
  size_t values(MessageType t) const {
    return values_[static_cast<size_t>(t)];
  }

  size_t TotalMessages() const;
  size_t TotalPackets() const;
  size_t TotalValues() const;

  /// Adds another accounting into this one.
  void Merge(const CommAccounting& other);

  /// Adds pre-aggregated counters for one message type. Used when an
  /// accounting is reassembled from a serialized form (cluster IPC): the
  /// packet model already ran on the worker, so the packet count is
  /// carried verbatim instead of being re-derived.
  void AddRaw(MessageType t, size_t messages, size_t packets, size_t values);

 private:
  std::array<size_t, kMessageTypeCount> messages_{};
  std::array<size_t, kMessageTypeCount> packets_{};
  std::array<size_t, kMessageTypeCount> values_{};
};

}  // namespace mpn
