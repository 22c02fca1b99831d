#include "io/file_backend.h"

#include <errno.h>
#include <fcntl.h>
#include <string.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "util/spec_text.h"
#include "util/table.h"

#if LDB_HAVE_LIBURING
#include <liburing.h>
#endif

namespace ldb {

namespace {

int64_t RoundUp(int64_t v, int64_t unit) {
  return (v + unit - 1) / unit * unit;
}

}  // namespace

FileBackend::Bounce::~Bounce() { std::free(data); }

Status FileBackend::Bounce::Reserve(int64_t bytes, int64_t align) {
  if (bytes <= size) return Status::Ok();
  std::free(data);
  data = nullptr;
  size = 0;
  void* p = nullptr;
  const int64_t rounded = RoundUp(bytes, align);
  if (posix_memalign(&p, static_cast<size_t>(align),
                     static_cast<size_t>(rounded)) != 0) {
    return Status::IoError(
        StrFormat("posix_memalign(%lld) failed", (long long)rounded));
  }
  data = static_cast<char*>(p);
  size = rounded;
  return Status::Ok();
}

bool FileBackend::IoUringCompiledIn() {
#if LDB_HAVE_LIBURING
  return true;
#else
  return false;
#endif
}

Result<std::unique_ptr<FileBackend>> FileBackend::Open(
    const FileBackendOptions& options) {
  if (options.dir.empty()) {
    return Status::InvalidArgument("file backend requires a directory");
  }
  const int64_t lbs = options.logical_block_bytes;
  if (lbs <= 0 || (lbs & (lbs - 1)) != 0 || lbs % 512 != 0) {
    return Status::InvalidArgument(StrFormat(
        "logical_block_bytes must be a power-of-two multiple of 512, got "
        "%lld",
        (long long)lbs));
  }
  if (options.capacity_bytes.empty()) {
    return Status::InvalidArgument("file backend requires >= 1 target");
  }
  if (options.queue_depth <= 0 || options.num_workers <= 0) {
    return Status::InvalidArgument(
        "queue_depth and num_workers must be positive");
  }

  auto backend = std::unique_ptr<FileBackend>(new FileBackend());
  backend->options_ = options;
  backend->geometry_.num_targets =
      static_cast<int>(options.capacity_bytes.size());
  backend->geometry_.logical_block_bytes = lbs;
  backend->geometry_.direct_io = true;
  backend->epoch_ = std::chrono::steady_clock::now();

  ::mkdir(options.dir.c_str(), 0755);  // best-effort; open() reports errors

  bool warned_direct = false;
  for (size_t t = 0; t < options.capacity_bytes.size(); ++t) {
    const auto target_error = [t](const std::string& what) {
      return ClauseError("backend target", static_cast<int>(t) + 1, what);
    };
    const int64_t want = options.capacity_bytes[t];
    if (want <= 0) {
      return target_error(
          StrFormat("capacity must be > 0, got %lld", (long long)want));
    }
    Target target;
    target.path =
        options.dir + StrFormat("/target-%03d.dat", static_cast<int>(t));

    // Probe a pre-existing file before touching it: a size that is not a
    // multiple of the logical block would silently lose its tail under
    // O_DIRECT round-down, so reject it outright.
    struct stat st;
    if (::stat(target.path.c_str(), &st) == 0) {
      if (!S_ISREG(st.st_mode) && !S_ISBLK(st.st_mode)) {
        return target_error(
            StrFormat("%s is neither a regular file nor a block device",
                      target.path.c_str()));
      }
      if (S_ISREG(st.st_mode) && st.st_size % lbs != 0) {
        return target_error(
            StrFormat("file %s size %lld is not a multiple of the %lld-byte "
                      "logical block",
                      target.path.c_str(), (long long)st.st_size,
                      (long long)lbs));
      }
    }

    target.buffered_fd = ::open(target.path.c_str(), O_RDWR | O_CREAT, 0644);
    if (target.buffered_fd < 0) {
      return target_error(StrFormat("open(%s) failed: %s",
                                    target.path.c_str(), strerror(errno)));
    }
    const int64_t provisioned = RoundUp(want, lbs);
    target.capacity = options.dual_epoch ? 2 * provisioned : provisioned;
    struct stat now;
    if (::fstat(target.buffered_fd, &now) != 0) {
      ::close(target.buffered_fd);
      return target_error(StrFormat("fstat(%s) failed: %s",
                                    target.path.c_str(), strerror(errno)));
    }
    if (S_ISREG(now.st_mode) && now.st_size < target.capacity &&
        ::ftruncate(target.buffered_fd, target.capacity) != 0) {
      ::close(target.buffered_fd);
      return target_error(StrFormat("ftruncate(%s, %lld) failed: %s",
                                    target.path.c_str(),
                                    (long long)target.capacity,
                                    strerror(errno)));
    }
    if (S_ISREG(now.st_mode) && now.st_size > target.capacity) {
      // Never shrink a pre-existing file; expose what is there.
      target.capacity = now.st_size;
    }

    if (options.try_direct) {
      target.direct_fd = ::open(target.path.c_str(), O_RDWR | O_DIRECT);
    }
    if (target.direct_fd < 0) {
      backend->geometry_.direct_io = false;
      if (options.try_direct && !options.quiet && !warned_direct) {
        std::fprintf(stderr,
                     "layoutdb: O_DIRECT unavailable for %s (%s); falling "
                     "back to buffered I/O\n",
                     target.path.c_str(), strerror(errno));
        warned_direct = true;
      }
    }
    backend->geometry_.capacity_bytes.push_back(target.capacity);
    if (options.dual_epoch) {
      backend->geometry_.epoch_stride.push_back(provisioned);
    }
    backend->targets_.push_back(target);
  }

  backend->worker_bounce_.reserve(static_cast<size_t>(options.num_workers));
  for (int w = 0; w < options.num_workers; ++w) {
    backend->worker_bounce_.push_back(std::make_unique<Bounce>());
  }
  for (int w = 0; w < options.num_workers; ++w) {
    backend->workers_.emplace_back(
        [b = backend.get(), w]() { b->WorkerLoop(w); });
  }
  return backend;
}

FileBackend::~FileBackend() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  job_cv_.notify_all();
  for (auto& worker : workers_) worker.join();
  for (auto& target : targets_) {
    if (target.direct_fd >= 0) ::close(target.direct_fd);
    if (target.buffered_fd >= 0) ::close(target.buffered_fd);
  }
}

const std::string& FileBackend::target_path(int t) const {
  return targets_[static_cast<size_t>(t)].path;
}

double FileBackend::NowS() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

void FileBackend::Submit(int target, const TargetRequest& req, void* data,
                         Completion done) {
  Job job;
  job.target = target;
  job.offset = req.offset;
  job.size = req.size;
  job.is_write = req.is_write;
  job.data = data;
  job.done = std::move(done);

  std::unique_lock<std::mutex> lock(mu_);
  if (target < 0 || target >= static_cast<int>(targets_.size()) ||
      req.size <= 0 || req.offset < 0 ||
      req.offset + req.size > targets_[static_cast<size_t>(target)].capacity) {
    ++counters_.errors;
    fired_.push_back(Fired{std::move(job.done), NowS(),
                           Status::InvalidArgument(StrFormat(
                               "request [%lld, +%lld) out of range on "
                               "target %d",
                               (long long)req.offset, (long long)req.size,
                               target))});
    return;
  }
  Target& tgt = targets_[static_cast<size_t>(target)];
  space_cv_.wait(lock,
                 [&] { return tgt.inflight < options_.queue_depth; });
  ++tgt.inflight;
  ++total_inflight_;
  jobs_.push_back(std::move(job));
  lock.unlock();
  job_cv_.notify_one();
}

void FileBackend::WorkerLoop(int worker) {
  Bounce* bounce = worker_bounce_[static_cast<size_t>(worker)].get();
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      job_cv_.wait(lock, [&] { return stopping_ || !jobs_.empty(); });
      if (jobs_.empty()) return;  // stopping, queue drained
      job = std::move(jobs_.front());
      jobs_.pop_front();
    }
    const Status status = Execute(job, bounce);
    {
      std::lock_guard<std::mutex> lock(mu_);
      fired_.push_back(Fired{std::move(job.done), NowS(), status});
      --targets_[static_cast<size_t>(job.target)].inflight;
      --total_inflight_;
    }
    space_cv_.notify_all();
    drain_cv_.notify_all();
  }
}

Status FileBackend::Execute(const Job& job, Bounce* bounce) {
  const Target& target = targets_[static_cast<size_t>(job.target)];
  const int64_t lbs = geometry_.logical_block_bytes;
  const bool aligned = job.offset % lbs == 0 && job.size % lbs == 0;
  const bool data_aligned =
      job.data != nullptr &&
      reinterpret_cast<uintptr_t>(job.data) % static_cast<uintptr_t>(lbs) ==
          0;
  const bool use_direct = aligned && target.direct_fd >= 0;
  const int fd = use_direct ? target.direct_fd : target.buffered_fd;

  char* buf;
  if (job.data != nullptr && (!use_direct || data_aligned)) {
    buf = static_cast<char*>(job.data);
  } else {
    // Timing-only replay (null data) or an unaligned caller buffer under
    // O_DIRECT: move bytes through the worker's aligned scratch.
    LDB_RETURN_IF_ERROR(bounce->Reserve(job.size, lbs));
    buf = bounce->data;
    if (job.is_write && job.data != nullptr) {
      memcpy(buf, job.data, static_cast<size_t>(job.size));
    }
  }

  const double start = NowS();
  Status status = Transfer(fd, job.is_write, job.offset, job.size, buf);
  const double elapsed = NowS() - start;

  if (status.ok() && !job.is_write && job.data != nullptr &&
      buf != job.data) {
    memcpy(job.data, buf, static_cast<size_t>(job.size));
  }

  std::lock_guard<std::mutex> lock(mu_);
  counters_.io_time_s += elapsed;
  if (!aligned) ++counters_.unaligned_requests;
  if (!status.ok()) {
    ++counters_.errors;
  } else if (job.is_write) {
    ++counters_.writes;
    counters_.bytes_written += job.size;
  } else {
    ++counters_.reads;
    counters_.bytes_read += job.size;
  }
  return status;
}

Status FileBackend::Transfer(int fd, bool is_write, int64_t offset,
                             int64_t size, char* buf) {
#if LDB_HAVE_LIBURING
  if (options_.use_io_uring) {
    struct io_uring ring;
    if (io_uring_queue_init(4, &ring, 0) == 0) {
      int64_t done = 0;
      Status status;
      while (done < size) {
        struct io_uring_sqe* sqe = io_uring_get_sqe(&ring);
        const unsigned len = static_cast<unsigned>(
            std::min<int64_t>(size - done, 1 << 30));
        if (is_write) {
          io_uring_prep_write(sqe, fd, buf + done, len, offset + done);
        } else {
          io_uring_prep_read(sqe, fd, buf + done, len, offset + done);
        }
        io_uring_submit(&ring);
        struct io_uring_cqe* cqe = nullptr;
        const int rc = io_uring_wait_cqe(&ring, &cqe);
        if (rc != 0) {
          status = Status::IoError(
              StrFormat("io_uring_wait_cqe failed: %s", strerror(-rc)));
          break;
        }
        const int res = cqe->res;
        io_uring_cqe_seen(&ring, cqe);
        if (res < 0) {
          status = Status::IoError(StrFormat("io_uring %s failed: %s",
                                             is_write ? "write" : "read",
                                             strerror(-res)));
          break;
        }
        if (res == 0) {
          status = Status::IoError("io_uring short transfer at EOF");
          break;
        }
        done += res;
      }
      io_uring_queue_exit(&ring);
      return status;
    }
    // Ring setup failed (kernel too old, rlimit): fall through to p{read,
    // write}.
  }
#endif
  int64_t done = 0;
  while (done < size) {
    const size_t len = static_cast<size_t>(size - done);
    const ssize_t n =
        is_write ? ::pwrite(fd, buf + done, len, offset + done)
                 : ::pread(fd, buf + done, len, offset + done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(StrFormat("%s(%lld, +%lld) failed: %s",
                                       is_write ? "pwrite" : "pread",
                                       (long long)(offset + done),
                                       (long long)(size - done),
                                       strerror(errno)));
    }
    if (n == 0) {
      return Status::IoError(
          StrFormat("short %s at offset %lld", is_write ? "write" : "read",
                    (long long)(offset + done)));
    }
    done += n;
  }
  return Status::Ok();
}

Status FileBackend::ReadSync(int target, int64_t offset, int64_t size,
                             void* buf) {
  if (target < 0 || target >= static_cast<int>(targets_.size()) ||
      size <= 0 || offset < 0 ||
      offset + size > targets_[static_cast<size_t>(target)].capacity) {
    return Status::InvalidArgument(
        StrFormat("ReadSync [%lld, +%lld) out of range on target %d",
                  (long long)offset, (long long)size, target));
  }
  Job job;
  job.target = target;
  job.offset = offset;
  job.size = size;
  job.is_write = false;
  job.data = buf;
  std::lock_guard<std::mutex> lock(sync_mu_);
  return Execute(job, &sync_bounce_);
}

Status FileBackend::WriteSync(int target, int64_t offset, int64_t size,
                              const void* buf) {
  if (target < 0 || target >= static_cast<int>(targets_.size()) ||
      size <= 0 || offset < 0 ||
      offset + size > targets_[static_cast<size_t>(target)].capacity) {
    return Status::InvalidArgument(
        StrFormat("WriteSync [%lld, +%lld) out of range on target %d",
                  (long long)offset, (long long)size, target));
  }
  Job job;
  job.target = target;
  job.offset = offset;
  job.size = size;
  job.is_write = true;
  job.data = const_cast<void*>(buf);
  std::lock_guard<std::mutex> lock(sync_mu_);
  return Execute(job, &sync_bounce_);
}

Status FileBackend::Sync() {
  for (const Target& target : targets_) {
    if (::fdatasync(target.buffered_fd) != 0) {
      std::lock_guard<std::mutex> lock(mu_);
      ++counters_.errors;
      return Status::IoError(StrFormat("fdatasync(%s) failed: %s",
                                       target.path.c_str(),
                                       strerror(errno)));
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  ++counters_.syncs;
  return Status::Ok();
}

int FileBackend::PumpCompletions() {
  std::vector<Fired> ready;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ready.swap(fired_);
  }
  for (Fired& f : ready) {
    if (f.done) f.done(f.when_s, f.status);
  }
  return static_cast<int>(ready.size());
}

Status FileBackend::Drain() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    drain_cv_.wait(lock,
                   [&] { return total_inflight_ == 0 && jobs_.empty(); });
  }
  PumpCompletions();
  return Status::Ok();
}

BackendCounters FileBackend::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

}  // namespace ldb
