#ifndef LAYOUTDB_IO_FILE_BACKEND_H_
#define LAYOUTDB_IO_FILE_BACKEND_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <functional>
#include <vector>

#include "storage/io_request.h"
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
  /// Wall-clock seconds spent inside I/O syscalls, summed over workers.
  double io_time_s = 0.0;
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
  int queue_depth = 32;  ///< per-target async inflight cap (Submit blocks)
  int num_workers = 4;   ///< I/O worker threads
  bool try_direct = true;  ///< attempt O_DIRECT; fall back buffered + warn
  bool use_io_uring = true;  ///< use io_uring when compiled in
  bool quiet = false;        ///< suppress the buffered-fallback warning
  /// Provision each target file at *twice* its capacity and report the
  /// capacity as the geometry's epoch stride: migration runs place source
  /// (epoch 0) and destination (epoch 1) extents in disjoint halves (see
  /// DataPlaneOffset). Off for single-layout uses (calibration, replay).
  bool dual_epoch = false;
};

/// Real-I/O data plane: stripes each target's byte space over one regular
/// file (or raw device), served by a preadv/pwritev worker pool — or
/// io_uring when liburing is available at build time — with O_DIRECT
/// aligned buffers and a buffered fallback for filesystems (tmpfs) and
/// requests that cannot satisfy the alignment contract.
///
/// The event-queue simulator stays the one timing engine: the closed-loop
/// runner and every scenario drive StorageSystem directly. This backend
/// moves the bytes underneath (migration chunk copies, pattern
/// population and verification, calibration, replay benches).
///  - Submit() is asynchronous. `done` fires exactly once with the
///    completion time in wall-clock seconds since Open() plus the request
///    outcome. Completions are queued and delivered on the caller's
///    thread by PumpCompletions() or Drain(). Wall-clock completion times
///    cannot drive the simulator's virtual clock.
///  - `data` may be null: the backend then moves bytes through an internal
///    scratch buffer (timing-only replay). With real data the pointer need
///    not be aligned; the backend bounces through an aligned buffer when
///    O_DIRECT demands it.
///  - ReadSync/WriteSync are the synchronous data plane (migration chunk
///    copies, pattern verification).
class FileBackend final {
 public:
  using Completion = std::function<void(double when_s, const Status& status)>;

  /// Probes/creates the target files and starts the worker pool. Probe
  /// failures (bad sizes, unwritable dir) are clause-indexed by target:
  /// "backend target clause N: ...".
  static Result<std::unique_ptr<FileBackend>> Open(
      const FileBackendOptions& options);

  ~FileBackend();

  FileBackend(const FileBackend&) = delete;
  FileBackend& operator=(const FileBackend&) = delete;

  const BackendGeometry& geometry() const { return geometry_; }

  /// Submits `req` against target `target`'s byte space; `done` fires once,
  /// on the thread that pumps completions.
  void Submit(int target, const TargetRequest& req, void* data,
              Completion done);

  /// Synchronously reads `size` bytes at `offset` of `target` into `buf`.
  Status ReadSync(int target, int64_t offset, int64_t size, void* buf);

  /// Synchronously writes `size` bytes at `offset` of `target` from `buf`.
  Status WriteSync(int target, int64_t offset, int64_t size,
                   const void* buf);

  /// Durability barrier: flushes all completed writes to media.
  Status Sync();

  /// Delivers queued completions on the calling thread; returns how many
  /// fired.
  int PumpCompletions();

  /// Blocks until every submitted request has completed and its completion
  /// has been delivered.
  Status Drain();

  BackendCounters counters() const;

  /// Path of target `t`'s backing file.
  const std::string& target_path(int t) const;

  /// True when this build carries the io_uring submission path.
  static bool IoUringCompiledIn();

 private:
  struct Target {
    std::string path;
    int buffered_fd = -1;
    int direct_fd = -1;  ///< -1 when O_DIRECT is unsupported here
    int64_t capacity = 0;
    int inflight = 0;
  };
  struct Job {
    int target = 0;
    int64_t offset = 0;
    int64_t size = 0;
    bool is_write = false;
    void* data = nullptr;  ///< null = timing-only, use worker scratch
    Completion done;
  };
  struct Fired {
    Completion done;
    double when_s = 0.0;
    Status status;
  };
  /// Per-thread aligned bounce buffer (posix_memalign), grown on demand.
  struct Bounce {
    char* data = nullptr;
    int64_t size = 0;
    ~Bounce();
    Status Reserve(int64_t bytes, int64_t align);
  };

  FileBackend() = default;

  void WorkerLoop(int worker);
  /// Executes one I/O on the caller's thread through `bounce`; fills
  /// counters under mu_.
  Status Execute(const Job& job, Bounce* bounce);
  /// The raw transfer loop (pread/pwrite or io_uring) on `fd`.
  Status Transfer(int fd, bool is_write, int64_t offset, int64_t size,
                  char* buf);
  double NowS() const;

  FileBackendOptions options_;
  BackendGeometry geometry_;
  std::vector<Target> targets_;
  std::chrono::steady_clock::time_point epoch_;

  mutable std::mutex mu_;
  std::condition_variable job_cv_;    ///< workers wait for jobs
  std::condition_variable space_cv_;  ///< Submit waits for queue depth
  std::condition_variable drain_cv_;  ///< Drain waits for idle
  std::deque<Job> jobs_;
  std::vector<Fired> fired_;
  int total_inflight_ = 0;
  bool stopping_ = false;
  BackendCounters counters_;

  std::vector<std::thread> workers_;
  std::vector<std::unique_ptr<Bounce>> worker_bounce_;
  std::mutex sync_mu_;  ///< serializes ReadSync/WriteSync bounce use
  Bounce sync_bounce_;
};

}  // namespace ldb

#endif  // LAYOUTDB_IO_FILE_BACKEND_H_
