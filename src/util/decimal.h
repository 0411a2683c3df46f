// Strict unsigned decimal parsing for environment specs (MPN_MEMORY_BUDGET,
// MPN_FAULT_PLAN). Unlike strtoull it takes digits only: no whitespace, no
// sign (strtoull wraps "-1" to 2^64 - 1), and no silent clamp on overflow.
#pragma once

#include <cstdint>
#include <limits>

namespace mpn {

/// Parses all of [begin, end) as an unsigned decimal into `*out`. Returns
/// false, leaving `*out` untouched, when the range is empty, holds a
/// character that is not a digit, or names a value above UINT64_MAX.
inline bool ParseDecimal(const char* begin, const char* end, uint64_t* out) {
  if (begin == end) return false;
  uint64_t v = 0;
  for (const char* p = begin; p != end; ++p) {
    if (*p < '0' || *p > '9') return false;
    const uint64_t digit = static_cast<uint64_t>(*p - '0');
    if (v > (std::numeric_limits<uint64_t>::max() - digit) / 10) return false;
    v = v * 10 + digit;
  }
  *out = v;
  return true;
}

}  // namespace mpn
