#include "io/pattern.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "util/table.h"

namespace ldb {

uint64_t PatternWord(ObjectId object, int64_t word_offset) {
  // splitmix64 over the (object, word) coordinates: cheap, well mixed, and
  // stable across platforms.
  uint64_t z = (static_cast<uint64_t>(static_cast<uint32_t>(object)) << 40) ^
               static_cast<uint64_t>(word_offset) ^ 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {

/// Byte path: copies pattern bytes [pos, pos + n), all inside one word.
void FillInWord(ObjectId object, int64_t pos, int64_t n, char* out) {
  const int64_t word_base = pos - pos % 8;
  const uint64_t word = PatternWord(object, word_base);
  memcpy(out, reinterpret_cast<const char*>(&word) + (pos - word_base),
         static_cast<size_t>(n));
}

/// Byte path: the first of bytes [pos, pos + n), all inside one word, that
/// differs from the pattern, or -1.
int64_t MismatchInWord(ObjectId object, int64_t pos, int64_t n,
                       const char* in) {
  const int64_t word_base = pos - pos % 8;
  const uint64_t word = PatternWord(object, word_base);
  const char* bytes = reinterpret_cast<const char*>(&word) + (pos - word_base);
  for (int64_t b = 0; b < n; ++b) {
    if (in[b] != bytes[b]) return pos + b;
  }
  return -1;
}

}  // namespace

// Both kernels take whole words at word-aligned positions (one PatternWord
// and one 8-byte store or compare each) and the byte path only for a
// ragged head or tail, or to name the bad byte of a word that differs.

void FillPattern(ObjectId object, int64_t offset, int64_t size, void* buf) {
  char* out = static_cast<char*>(buf);
  const int64_t end = offset + size;
  int64_t pos = offset;
  if (pos % 8 != 0 && pos < end) {
    const int64_t n = std::min(8 - pos % 8, end - pos);
    FillInWord(object, pos, n, out);
    out += n;
    pos += n;
  }
  for (; end - pos >= 8; pos += 8, out += 8) {
    const uint64_t word = PatternWord(object, pos);
    memcpy(out, &word, 8);
  }
  if (pos < end) FillInWord(object, pos, end - pos, out);
}

int64_t FindPatternMismatch(ObjectId object, int64_t offset, int64_t size,
                            const void* buf) {
  const char* in = static_cast<const char*>(buf);
  const int64_t end = offset + size;
  int64_t pos = offset;
  if (pos % 8 != 0 && pos < end) {
    const int64_t n = std::min(8 - pos % 8, end - pos);
    const int64_t bad = MismatchInWord(object, pos, n, in);
    if (bad >= 0) return bad;
    in += n;
    pos += n;
  }
  for (; end - pos >= 8; pos += 8, in += 8) {
    uint64_t got;
    memcpy(&got, in, 8);
    if (got != PatternWord(object, pos)) {
      return MismatchInWord(object, pos, 8, in);
    }
  }
  return pos < end ? MismatchInWord(object, pos, end - pos, in) : -1;
}

namespace {

/// Runs `chunk_bytes`-sized logical windows of every object through the
/// router's read path and invokes `fn(object, logical_offset, size,
/// chunks)` per window; the chunks cover the window in logical order.
template <typename Fn>
Status ForEachWindow(VolumeRouter* router, int64_t chunk_bytes, Fn fn) {
  std::vector<TargetChunk> chunks;
  for (ObjectId i = 0; i < router->num_objects(); ++i) {
    const int64_t object_size = router->object_size(i);
    for (int64_t off = 0; off < object_size; off += chunk_bytes) {
      const int64_t len = std::min(chunk_bytes, object_size - off);
      chunks.clear();
      router->Route(i, off, len, /*is_write=*/false, &chunks);
      int64_t mapped = 0;
      for (const TargetChunk& c : chunks) mapped += c.size;
      if (mapped != len) {
        return Status::Internal(StrFormat(
            "router mapped %lld of %lld bytes for object %d @%lld",
            (long long)mapped, (long long)len, (int)i, (long long)off));
      }
      LDB_RETURN_IF_ERROR(fn(i, off, len, chunks));
    }
  }
  return Status::Ok();
}

}  // namespace

Status PopulateBackendPattern(FileBackend* backend, VolumeRouter* router,
                              int64_t chunk_bytes) {
  AlignedBuffer buf;
  LDB_RETURN_IF_ERROR(ForEachWindow(
      router, chunk_bytes,
      [&](ObjectId object, int64_t offset, int64_t size,
          const std::vector<TargetChunk>& chunks) {
        LDB_RETURN_IF_ERROR(
            buf.Reserve(size, backend->geometry().logical_block_bytes));
        FillPattern(object, offset, size, buf.data());
        return backend->TransferChunks(chunks, /*is_write=*/true, buf.data());
      }));
  return backend->Sync();
}

Result<int64_t> VerifyBackendPattern(FileBackend* backend,
                                     VolumeRouter* router,
                                     int64_t chunk_bytes) {
  AlignedBuffer buf;
  int64_t verified = 0;
  const Status status = ForEachWindow(
      router, chunk_bytes,
      [&](ObjectId object, int64_t offset, int64_t size,
          const std::vector<TargetChunk>& chunks) {
        LDB_RETURN_IF_ERROR(
            buf.Reserve(size, backend->geometry().logical_block_bytes));
        LDB_RETURN_IF_ERROR(
            backend->TransferChunks(chunks, /*is_write=*/false, buf.data()));
        const int64_t bad = FindPatternMismatch(object, offset, size,
                                                buf.data());
        if (bad < 0) {
          verified += size;
          return Status::Ok();
        }
        // Name the chunk holding the bad byte.
        size_t k = 0;
        int64_t logical = offset;
        while (bad >= logical + chunks[k].size) logical += chunks[k++].size;
        const TargetChunk& c = chunks[k];
        return Status::IoError(StrFormat(
            "pattern mismatch: object %d logical offset %lld (target %d "
            "@%lld)",
            (int)object, (long long)bad, c.target,
            (long long)(DataPlaneOffset(backend->geometry(), c) +
                        (bad - logical))));
      });
  if (!status.ok()) return status;
  return verified;
}

}  // namespace ldb
