// The two environment variables CI sets for the test binaries, and their
// grammar. The library reads neither; these helpers turn them into the
// explicit options and InjectFaultAt calls a test makes.
//
//   MPN_MEMORY_BUDGET  a byte cap with an optional k/m/g suffix ("32k").
//                      fuzz::MakeEngineOptions (engine_fuzz_util.h) gives
//                      it to every engine whose cap the test leaves at 0,
//                      so CI's budgeted steps push the unmodified engine,
//                      cluster and session suites through the spill path.
//   MPN_FAULT_PLAN     "shard:at:kind[,shard:at:kind...]" or "seed:N". The
//                      fault soak (transport_fault_test.cc) arms it on its
//                      cluster, so CI can randomize the soak's plan.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>

#include "engine/cluster.h"
#include "engine/ipc.h"
#include "engine/transport.h"
#include "util/rng.h"

namespace mpn {

/// Parses all of [begin, end) as an unsigned decimal into `*out`. Returns
/// false, leaving `*out` untouched, when the range is empty, holds a
/// character that is not a digit, or names a value above UINT64_MAX.
/// Unlike strtoull it takes digits only: no whitespace, no sign (strtoull
/// wraps "-1" to 2^64 - 1), and no silent clamp on overflow.
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

/// Parses a byte-count spec with an optional k/m/g suffix ("64k", "256M",
/// "1g", "12345"). Returns 0 for null/empty/garbage — i.e. "no budget".
/// Garbage is anything but digits and one optional suffix (so no
/// whitespace or sign), and any value whose byte count exceeds SIZE_MAX.
inline size_t ParseMemoryBudgetBytes(const char* spec) {
  if (spec == nullptr || *spec == '\0') return 0;
  const char* end = spec + std::strlen(spec);
  const char suffix = end[-1];
  uint64_t mult = 1;
  if (suffix == 'k' || suffix == 'K') mult = uint64_t{1} << 10;
  if (suffix == 'm' || suffix == 'M') mult = uint64_t{1} << 20;
  if (suffix == 'g' || suffix == 'G') mult = uint64_t{1} << 30;
  if (mult != 1) --end;
  uint64_t v = 0;
  if (!ParseDecimal(spec, end, &v)) return 0;
  if (v > std::numeric_limits<size_t>::max() / mult) return 0;
  return static_cast<size_t>(v * mult);
}

/// The MPN_MEMORY_BUDGET cap: 0 when the variable is unset or malformed.
inline size_t EnvMemoryBudgetBytes() {
  return ParseMemoryBudgetBytes(std::getenv("MPN_MEMORY_BUDGET"));
}

/// A fault's name in a plan spec ("corrupt", "stall", ...).
inline const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kShortIo:
      return "short";
    case FaultKind::kEintrStorm:
      return "eintr";
    case FaultKind::kCorrupt:
      return "corrupt";
    case FaultKind::kTruncate:
      return "trunc";
    case FaultKind::kStall:
      return "stall";
    case FaultKind::kReset:
      return "reset";
    case FaultKind::kCrash:
      return "crash";
  }
  return "unknown";
}

/// Parses a FaultKindName back into the enum; throws std::runtime_error
/// on an unknown name.
inline FaultKind ParseFaultKind(const std::string& name) {
  for (const FaultKind k :
       {FaultKind::kShortIo, FaultKind::kEintrStorm, FaultKind::kCorrupt,
        FaultKind::kTruncate, FaultKind::kStall, FaultKind::kReset,
        FaultKind::kCrash}) {
    if (name == FaultKindName(k)) return k;
  }
  throw std::runtime_error("mpn test env: unknown fault kind: " + name);
}

/// Parses "shard:at:kind[,shard:at:kind...]" where shard and at are
/// unsigned decimals (digits only) and kind is a FaultKindName; spaces
/// allowed around tokens. Throws std::runtime_error on a malformed spec —
/// a typo in a plan must fail loudly, not silently disarm the soak.
inline FaultPlan ParseFaultPlan(const std::string& spec) {
  const auto trim = [](const std::string& tok) {
    const size_t b = tok.find_first_not_of(" \t");
    if (b == std::string::npos) return std::string();
    const size_t e = tok.find_last_not_of(" \t");
    return tok.substr(b, e - b + 1);
  };
  FaultPlan plan;
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string tok = trim(spec.substr(pos, comma - pos));
    pos = comma + 1;
    if (tok.empty()) continue;
    const size_t c1 = tok.find(':');
    const size_t c2 = c1 == std::string::npos ? std::string::npos
                                              : tok.find(':', c1 + 1);
    if (c1 == std::string::npos || c2 == std::string::npos || c1 == 0 ||
        c2 == c1 + 1 || c2 + 1 == tok.size()) {
      throw std::runtime_error(
          "mpn test env: malformed fault plan entry (want shard:at:kind): " +
          tok);
    }
    const char* field = tok.c_str();
    uint64_t shard = 0, at = 0;
    if (!ParseDecimal(field, field + c1, &shard)) {
      throw std::runtime_error("mpn test env: malformed fault plan shard: " +
                               tok);
    }
    if (!ParseDecimal(field + c1 + 1, field + c2, &at)) {
      throw std::runtime_error("mpn test env: malformed fault plan index: " +
                               tok);
    }
    FaultPlan::Event ev;
    ev.shard = static_cast<size_t>(shard);
    ev.at = static_cast<size_t>(at);
    ev.kind = ParseFaultKind(tok.substr(c2 + 1));
    plan.events.push_back(ev);
  }
  return plan;
}

/// Derives a small random plan (1-2 frame-fault events over `shards`
/// shards; never a crash) from a seed — the "seed:N" form of
/// MPN_FAULT_PLAN. Deterministic for a given (seed, shards).
inline FaultPlan SeededFaultPlan(uint64_t seed, size_t shards) {
  FaultPlan plan;
  if (shards == 0) return plan;
  Rng rng(seed);
  const size_t count = 1 + static_cast<size_t>(rng.UniformInt(0, 1));
  for (size_t i = 0; i < count; ++i) {
    FaultPlan::Event ev;
    ev.shard = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(shards) - 1));
    // Early frame indices: the first frames of a shard are its admit
    // receives, so low indices are the ones a small workload reaches.
    ev.at = static_cast<size_t>(rng.UniformInt(0, 11));
    static const FaultKind kKinds[] = {
        FaultKind::kShortIo, FaultKind::kEintrStorm, FaultKind::kCorrupt,
        FaultKind::kTruncate, FaultKind::kStall, FaultKind::kReset};
    ev.kind = kKinds[rng.UniformInt(0, 5)];
    plan.events.push_back(ev);
  }
  return plan;
}

/// Reads MPN_FAULT_PLAN, or `unset_spec` when the variable is unset: an
/// empty spec is the empty plan, "seed:N" is SeededFaultPlan(N, shards),
/// anything else goes to ParseFaultPlan. Throws std::runtime_error on a
/// malformed spec. A shard >= `shards` is left to InjectFaultPlan.
inline FaultPlan FaultPlanFromEnv(size_t shards, const char* unset_spec = "") {
  const char* env = std::getenv("MPN_FAULT_PLAN");
  const std::string spec(env != nullptr ? env : unset_spec);
  if (spec.rfind("seed:", 0) == 0) {
    uint64_t seed = 0;
    if (!ParseDecimal(spec.c_str() + 5, spec.c_str() + spec.size(), &seed)) {
      throw std::runtime_error("mpn test env: malformed fault plan seed: " +
                               spec);
    }
    return SeededFaultPlan(seed, shards);
  }
  return ParseFaultPlan(spec);
}

/// Arms every event of `plan` on `cluster` in plan order. An event naming
/// a shard the cluster does not have could never fire, so InjectFaultAt's
/// std::out_of_range reaches the caller instead of a soak that passes
/// without its fault.
inline void InjectFaultPlan(ClusterEngine* cluster, const FaultPlan& plan) {
  for (const FaultPlan::Event& ev : plan.events) {
    cluster->InjectFaultAt(ev.shard, ev.at, ev.kind);
  }
}

/// Sets (or, for a null `value`, unsets) an environment variable for one
/// scope and restores its previous state on exit, so a test that sets
/// MPN_MEMORY_BUDGET or MPN_FAULT_PLAN leaves CI's own value to the tests
/// after it.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    had_old_ = old != nullptr;
    if (had_old_) old_ = old;
    if (value != nullptr) {
      setenv(name, value, /*overwrite=*/1);
    } else {
      unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (had_old_) {
      setenv(name_, old_.c_str(), /*overwrite=*/1);
    } else {
      unsetenv(name_);
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  bool had_old_ = false;
  std::string old_;
};

}  // namespace mpn
