#ifndef LAYOUTDB_UTIL_FNV_H_
#define LAYOUTDB_UTIL_FNV_H_

#include <cstdint>
#include <string_view>

namespace ldb {

/// 64-bit FNV-1a, the one hash behind calibration cache keys and the
/// journal's plan and problem digests. Those values are persisted (cache
/// file names, journal records), so these functions must never change.
inline constexpr uint64_t kFnvOffsetBasis = 14695981039346656037ULL;
inline constexpr uint64_t kFnvPrime = 1099511628211ULL;

/// Start value of MigrationPlanDigest and ProblemStateDigest. It is *not*
/// kFnvOffsetBasis (it lacks that constant's last digit), but journals on
/// disk hold digests computed from it, so it stays.
inline constexpr uint64_t kJournalDigestSeed = 1469598103934665603ULL;

/// Folds the bytes of `text` into `hash`.
inline uint64_t FnvMixBytes(uint64_t hash, std::string_view text) {
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= kFnvPrime;
  }
  return hash;
}

/// Folds the eight bytes of `v`, least significant first, into `hash`.
inline uint64_t FnvMixU64(uint64_t hash, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (v >> (8 * i)) & 0xFF;
    hash *= kFnvPrime;
  }
  return hash;
}

}  // namespace ldb

#endif  // LAYOUTDB_UTIL_FNV_H_
