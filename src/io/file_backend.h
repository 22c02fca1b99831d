#ifndef LAYOUTDB_IO_FILE_BACKEND_H_
#define LAYOUTDB_IO_FILE_BACKEND_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include <sys/uio.h>

#include "storage/lvm.h"
#include "util/status.h"

namespace ldb {

/// Capacity and alignment description of a FileBackend, filled by the probe
/// at open time. Requests address each target's linear byte space, exactly
/// as with StorageTarget.
struct BackendGeometry {
  int num_targets = 0;
  std::vector<int64_t> capacity_bytes;  ///< per target, indexed like requests
  /// Alignment unit for the direct-I/O fast path. Requests whose offset and
  /// size are multiples of this are eligible for O_DIRECT; others take the
  /// buffered fallback (and are counted).
  int64_t logical_block_bytes = 512;
  /// True when every target serves aligned I/O with O_DIRECT. False on
  /// buffered fallbacks (e.g. tmpfs).
  bool direct_io = false;
  /// Per-target byte stride between data-plane epochs (see
  /// TargetChunk::epoch). Empty (or zero) = a single epoch: chunk offsets
  /// address the file directly. A dual-epoch backend provisions each
  /// target at twice the simulated capacity and reports the simulated
  /// capacity here, so a migration's source (epoch 0) and destination
  /// (epoch 1) extents land in disjoint halves of the file.
  std::vector<int64_t> epoch_stride;
};

/// Byte offset of `chunk` in its target's backing file: the simulated
/// offset shifted into the chunk's epoch half when the backend is
/// dual-epoch.
inline int64_t DataPlaneOffset(const BackendGeometry& geometry,
                               const TargetChunk& chunk) {
  if (chunk.epoch == 0 || geometry.epoch_stride.empty()) return chunk.offset;
  return chunk.offset +
         chunk.epoch *
             geometry.epoch_stride[static_cast<size_t>(chunk.target)];
}

/// Cumulative I/O counters of a backend. Monotone over the backend's
/// lifetime; read them before/after a phase and subtract.
struct BackendCounters {
  uint64_t reads = 0;
  uint64_t writes = 0;
  int64_t bytes_read = 0;
  int64_t bytes_written = 0;
  uint64_t syncs = 0;
  /// Requests that missed the alignment contract and were served through
  /// the buffered fallback path.
  uint64_t unaligned_requests = 0;
  uint64_t errors = 0;
  /// preadv/pwritev calls issued (a retry after a short transfer counts
  /// again).
  uint64_t syscalls = 0;
  /// Wall-clock seconds spent inside I/O syscalls.
  double io_time_s = 0.0;
};

/// Heap buffer aligned for O_DIRECT (posix_memalign), grown on demand. A
/// caller that hands FileBackend a buffer from here, at a block-aligned
/// position, skips the backend's bounce copy.
class AlignedBuffer {
 public:
  AlignedBuffer() = default;
  ~AlignedBuffer() { Release(); }
  AlignedBuffer(const AlignedBuffer&) = delete;
  AlignedBuffer& operator=(const AlignedBuffer&) = delete;

  /// Makes `bytes` (rounded up to `align`) available at an `align`-byte
  /// boundary. Keeps the current block when it is already large enough;
  /// otherwise the contents are not preserved.
  Status Reserve(int64_t bytes, int64_t align);
  /// Frees the block.
  void Release();

  char* data() const { return data_; }

 private:
  char* data_ = nullptr;
  int64_t size_ = 0;
};

/// Configuration of a FileBackend: one regular file (or raw device node)
/// per storage target under `dir`, named `target-NNN.dat`.
struct FileBackendOptions {
  std::string dir;                      ///< directory holding target files
  std::vector<int64_t> capacity_bytes;  ///< per-target capacity to provision
  /// Alignment unit for O_DIRECT. Capacities round up to a multiple of
  /// this; pre-existing files whose size is not a multiple are rejected by
  /// the probe (clause-indexed error) rather than silently truncated.
  int64_t logical_block_bytes = 4096;
  /// No effect (every transfer runs on the caller's thread); kept because
  /// layoutbench sets it.
  int num_workers = 4;
  bool try_direct = true;  ///< attempt O_DIRECT; fall back buffered + warn
  bool quiet = false;      ///< suppress the buffered-fallback warning
  /// Provision each target file at *twice* its capacity and report the
  /// capacity as the geometry's epoch stride: migration runs place source
  /// (epoch 0) and destination (epoch 1) extents in disjoint halves (see
  /// DataPlaneOffset). Off for single-layout uses (calibration, replay).
  bool dual_epoch = false;
};

/// Real-I/O data plane: stripes each target's byte space over one regular
/// file (or raw device) and moves bytes with preadv/pwritev on the
/// caller's thread. The alignment ladder, per request or chunk:
///   - offset and size on the logical block, caller buffer aligned:
///     O_DIRECT straight from the caller's memory;
///   - offset and size aligned, buffer unaligned or null (timing-only):
///     O_DIRECT through one aligned bounce buffer;
///   - offset or size unaligned: the buffered fd, counted in
///     `unaligned_requests`.
/// Without O_DIRECT (tmpfs) every aligned request uses the buffered fd.
///
/// The event-queue simulator is the one timing engine: the closed-loop
/// runner and every scenario drive StorageSystem directly. This backend
/// only moves the bytes underneath (migration chunk copies, pattern
/// population and verification, real calibration, the drift bench's
/// replay). Calls are serialized by one mutex, so a backend may be shared
/// between threads, but transfers never overlap.
class FileBackend final {
 public:
  /// Probes/creates the target files. Probe failures (bad sizes,
  /// unwritable dir) are clause-indexed by target:
  /// "backend target clause N: ...".
  static Result<std::unique_ptr<FileBackend>> Open(
      const FileBackendOptions& options);

  ~FileBackend();

  FileBackend(const FileBackend&) = delete;
  FileBackend& operator=(const FileBackend&) = delete;

  const BackendGeometry& geometry() const { return geometry_; }

  /// Reads `size` bytes at `offset` of `target` into `buf`. A null `buf`
  /// is a timing-only read: the bytes land in the backend's scratch
  /// buffer. `buf` need not be aligned. A request outside the target's
  /// byte space fails with InvalidArgument and leaves the counters alone.
  Status ReadSync(int target, int64_t offset, int64_t size, void* buf);

  /// Writes `size` bytes at `offset` of `target` from `buf`. A null `buf`
  /// is a timing-only write of the backend's scratch buffer (whatever it
  /// holds). Range checks as ReadSync.
  Status WriteSync(int target, int64_t offset, int64_t size,
                   const void* buf);

  /// Moves one window of chunks (a routed logical range): chunk k's bytes
  /// sit in `buf` right after chunk k-1's, in list order, and each chunk
  /// addresses DataPlaneOffset(geometry(), chunk) of its target. Aligned
  /// chunks whose buffer position the fd accepts are grouped per target
  /// into runs that are contiguous on media, one preadv/pwritev each;
  /// every other chunk goes alone as in ReadSync/WriteSync. Counters count
  /// chunks, as if each were one ReadSync/WriteSync. Every chunk is
  /// range-checked before any byte moves; a bad one fails the call with
  /// InvalidArgument and leaves the counters alone. `buf` must be non-null
  /// and chunks must not overlap on media.
  Status TransferChunks(const std::vector<TargetChunk>& chunks, bool is_write,
                        void* buf);

  /// Durability barrier: flushes all completed writes to media.
  Status Sync();

  BackendCounters counters() const;

  /// Path of target `t`'s backing file.
  const std::string& target_path(int t) const;

  /// Always false: there is no io_uring path. Kept because layoutbench
  /// prints it.
  static bool IoUringCompiledIn() { return false; }

 private:
  struct Target {
    std::string path;
    int buffered_fd = -1;
    int direct_fd = -1;  ///< -1 when O_DIRECT is unsupported here
    int64_t capacity = 0;
  };
  /// One block-aligned chunk of a TransferChunks window.
  struct Piece {
    int target;
    int64_t offset;  ///< file offset
    int64_t size;
    char* data;
  };

  FileBackend() = default;

  /// InvalidArgument unless [offset, offset + size) lies in the target.
  Status CheckRange(const char* op, int target_index, int64_t offset,
                    int64_t size) const;
  /// Executes one range-checked transfer; caller holds mu_. `data` null =
  /// timing-only through bounce_.
  Status ExecuteLocked(int target_index, int64_t offset, int64_t size,
                       bool is_write, void* data);
  /// The raw preadv/pwritev loop on `fd` (EINTR, short transfers,
  /// IOV_MAX); consumes `iov`. Caller holds mu_.
  Status Transfer(int fd, bool is_write, int64_t offset, iovec* iov,
                  size_t iovcnt);

  BackendGeometry geometry_;
  std::vector<Target> targets_;

  mutable std::mutex mu_;  ///< guards everything below
  AlignedBuffer bounce_;
  std::vector<Piece> pieces_;       ///< TransferChunks scratch
  std::vector<iovec> iov_;          ///< TransferChunks scratch
  BackendCounters counters_;
};

}  // namespace ldb

#endif  // LAYOUTDB_IO_FILE_BACKEND_H_
