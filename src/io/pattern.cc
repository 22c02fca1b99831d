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

void FillPattern(ObjectId object, int64_t offset, int64_t size, void* buf) {
  char* out = static_cast<char*>(buf);
  int64_t pos = offset;
  int64_t remaining = size;
  while (remaining > 0) {
    const int64_t word_base = pos / 8 * 8;
    const uint64_t word = PatternWord(object, word_base);
    const int64_t in_word = pos - word_base;
    const int64_t n = std::min<int64_t>(8 - in_word, remaining);
    const char* bytes = reinterpret_cast<const char*>(&word);
    memcpy(out, bytes + in_word, static_cast<size_t>(n));
    out += n;
    pos += n;
    remaining -= n;
  }
}

int64_t FindPatternMismatch(ObjectId object, int64_t offset, int64_t size,
                            const void* buf) {
  const char* in = static_cast<const char*>(buf);
  int64_t pos = offset;
  int64_t remaining = size;
  while (remaining > 0) {
    const int64_t word_base = pos / 8 * 8;
    const uint64_t word = PatternWord(object, word_base);
    const int64_t in_word = pos - word_base;
    const int64_t n = std::min<int64_t>(8 - in_word, remaining);
    const char* bytes = reinterpret_cast<const char*>(&word);
    for (int64_t b = 0; b < n; ++b) {
      if (in[b] != bytes[in_word + b]) return pos + b;
    }
    in += n;
    pos += n;
    remaining -= n;
  }
  return -1;
}

namespace {

/// Runs `chunk_bytes`-sized logical windows of every object through the
/// router's read path and invokes `fn(object, logical_offset, chunk)` per
/// mapped target chunk, with `buf` holding the window's pattern bytes at
/// the matching position.
template <typename Fn>
Status ForEachChunk(VolumeRouter* router, int64_t chunk_bytes, Fn fn) {
  std::vector<TargetChunk> chunks;
  for (ObjectId i = 0; i < router->num_objects(); ++i) {
    const int64_t object_size = router->object_size(i);
    for (int64_t off = 0; off < object_size; off += chunk_bytes) {
      const int64_t len = std::min(chunk_bytes, object_size - off);
      chunks.clear();
      router->Route(i, off, len, /*is_write=*/false, &chunks);
      int64_t logical = off;
      for (const TargetChunk& c : chunks) {
        LDB_RETURN_IF_ERROR(fn(i, logical, c));
        logical += c.size;
      }
      if (logical != off + len) {
        return Status::Internal(StrFormat(
            "router mapped %lld of %lld bytes for object %d @%lld",
            (long long)(logical - off), (long long)len, (int)i,
            (long long)off));
      }
    }
  }
  return Status::Ok();
}

}  // namespace

Status PopulateBackendPattern(FileBackend* backend, VolumeRouter* router,
                              int64_t chunk_bytes) {
  std::vector<char> buf;
  LDB_RETURN_IF_ERROR(ForEachChunk(
      router, chunk_bytes,
      [&](ObjectId object, int64_t logical, const TargetChunk& c) {
        buf.resize(static_cast<size_t>(c.size));
        FillPattern(object, logical, c.size, buf.data());
        return backend->WriteSync(c.target,
                                  DataPlaneOffset(backend->geometry(), c),
                                  c.size, buf.data());
      }));
  return backend->Sync();
}

Result<int64_t> VerifyBackendPattern(FileBackend* backend,
                                     VolumeRouter* router,
                                     int64_t chunk_bytes) {
  std::vector<char> buf;
  int64_t verified = 0;
  const Status status = ForEachChunk(
      router, chunk_bytes,
      [&](ObjectId object, int64_t logical, const TargetChunk& c) {
        buf.resize(static_cast<size_t>(c.size));
        const int64_t file_off = DataPlaneOffset(backend->geometry(), c);
        LDB_RETURN_IF_ERROR(
            backend->ReadSync(c.target, file_off, c.size, buf.data()));
        const int64_t bad =
            FindPatternMismatch(object, logical, c.size, buf.data());
        if (bad >= 0) {
          return Status::IoError(StrFormat(
              "pattern mismatch: object %d logical offset %lld (target %d "
              "@%lld)",
              (int)object, (long long)bad, c.target,
              (long long)(file_off + (bad - logical))));
        }
        verified += c.size;
        return Status::Ok();
      });
  if (!status.ok()) return status;
  return verified;
}

}  // namespace ldb
