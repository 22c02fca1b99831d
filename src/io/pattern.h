#ifndef LAYOUTDB_IO_PATTERN_H_
#define LAYOUTDB_IO_PATTERN_H_

#include <cstdint>

#include "io/file_backend.h"
#include "storage/lvm.h"
#include "util/status.h"

namespace ldb {

/// Deterministic verification pattern keyed by (object, logical offset):
/// every 8-byte word of an object's logical byte space has a fixed value
/// independent of where the layout places it. Migration copies therefore
/// preserve the pattern byte for byte, and "every byte readable" reduces
/// to re-deriving the expected word at each logical offset and comparing.
///
/// `word_offset` must be a multiple of 8 (the word's logical position).
uint64_t PatternWord(ObjectId object, int64_t word_offset);

/// Fills `buf` with the pattern of object bytes [offset, offset + size).
void FillPattern(ObjectId object, int64_t offset, int64_t size, void* buf);

/// Returns the object-relative offset of the first byte of `buf` that does
/// not match the pattern, or -1 when all `size` bytes match.
int64_t FindPatternMismatch(ObjectId object, int64_t offset, int64_t size,
                            const void* buf);

/// Writes every object's full pattern through `router`'s *read* routing
/// (the authoritative single location) onto `backend`, one `chunk_bytes`
/// logical window per FileBackend::TransferChunks call from one aligned
/// staging buffer. Used once at the start of a fresh real-backend run,
/// before any migration moves bytes.
Status PopulateBackendPattern(FileBackend* backend, VolumeRouter* router,
                              int64_t chunk_bytes = 1 << 20);

/// Reads every object byte back through `router`'s read routing (windows
/// as in PopulateBackendPattern) and checks it against the pattern.
/// Returns the total bytes verified, or an error naming the first
/// mismatching object, logical offset, target and file offset.
Result<int64_t> VerifyBackendPattern(FileBackend* backend,
                                     VolumeRouter* router,
                                     int64_t chunk_bytes = 1 << 20);

}  // namespace ldb

#endif  // LAYOUTDB_IO_PATTERN_H_
