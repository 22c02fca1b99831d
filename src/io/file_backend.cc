#include "io/file_backend.h"

#include <errno.h>
#include <fcntl.h>
#include <string.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>

#include "util/spec_text.h"
#include "util/table.h"

namespace ldb {

namespace {

int64_t RoundUp(int64_t v, int64_t unit) {
  return (v + unit - 1) / unit * unit;
}

}  // namespace

Status AlignedBuffer::Reserve(int64_t bytes, int64_t align) {
  if (bytes <= size_) return Status::Ok();
  Release();
  void* p = nullptr;
  const int64_t rounded = RoundUp(bytes, align);
  if (posix_memalign(&p, static_cast<size_t>(align),
                     static_cast<size_t>(rounded)) != 0) {
    return Status::IoError(
        StrFormat("posix_memalign(%lld) failed", (long long)rounded));
  }
  data_ = static_cast<char*>(p);
  size_ = rounded;
  return Status::Ok();
}

void AlignedBuffer::Release() {
  std::free(data_);
  data_ = nullptr;
  size_ = 0;
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
  auto backend = std::unique_ptr<FileBackend>(new FileBackend());
  backend->geometry_.num_targets =
      static_cast<int>(options.capacity_bytes.size());
  backend->geometry_.logical_block_bytes = lbs;
  backend->geometry_.direct_io = true;

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
  return backend;
}

FileBackend::~FileBackend() {
  for (auto& target : targets_) {
    if (target.direct_fd >= 0) ::close(target.direct_fd);
    if (target.buffered_fd >= 0) ::close(target.buffered_fd);
  }
}

const std::string& FileBackend::target_path(int t) const {
  return targets_[static_cast<size_t>(t)].path;
}

Status FileBackend::CheckRange(const char* op, int target_index,
                               int64_t offset, int64_t size) const {
  // `size > capacity - offset` cannot overflow once offset >= 0;
  // `offset + size` could.
  if (target_index < 0 || target_index >= static_cast<int>(targets_.size()) ||
      size <= 0 || offset < 0 ||
      size > targets_[static_cast<size_t>(target_index)].capacity - offset) {
    return Status::InvalidArgument(
        StrFormat("%s [%lld, +%lld) out of range on target %d", op,
                  (long long)offset, (long long)size, target_index));
  }
  return Status::Ok();
}

Status FileBackend::ExecuteLocked(int target_index, int64_t offset,
                                  int64_t size, bool is_write, void* data) {
  const Target& target = targets_[static_cast<size_t>(target_index)];
  const int64_t lbs = geometry_.logical_block_bytes;
  const bool aligned = offset % lbs == 0 && size % lbs == 0;
  const bool data_aligned =
      data != nullptr &&
      reinterpret_cast<uintptr_t>(data) % static_cast<uintptr_t>(lbs) == 0;
  const bool use_direct = aligned && target.direct_fd >= 0;
  const int fd = use_direct ? target.direct_fd : target.buffered_fd;

  char* buf;
  if (data != nullptr && (!use_direct || data_aligned)) {
    buf = static_cast<char*>(data);
  } else {
    // Timing-only (null data) or an unaligned caller buffer under
    // O_DIRECT: move bytes through the aligned bounce buffer.
    LDB_RETURN_IF_ERROR(bounce_.Reserve(size, lbs));
    buf = bounce_.data();
    if (is_write && data != nullptr) {
      memcpy(buf, data, static_cast<size_t>(size));
    }
  }

  iovec iov{buf, static_cast<size_t>(size)};
  const Status status = Transfer(fd, is_write, offset, &iov, 1);
  if (status.ok() && !is_write && data != nullptr && buf != data) {
    memcpy(data, buf, static_cast<size_t>(size));
  }
  if (!aligned) ++counters_.unaligned_requests;
  if (!status.ok()) {
    ++counters_.errors;
  } else if (is_write) {
    ++counters_.writes;
    counters_.bytes_written += size;
  } else {
    ++counters_.reads;
    counters_.bytes_read += size;
  }
  return status;
}

Status FileBackend::Transfer(int fd, bool is_write, int64_t offset,
                             iovec* iov, size_t iovcnt) {
  const auto start = std::chrono::steady_clock::now();
  Status status = Status::Ok();
  while (iovcnt > 0) {
    const int cnt = static_cast<int>(std::min<size_t>(iovcnt, IOV_MAX));
    const ssize_t n = is_write ? ::pwritev(fd, iov, cnt, offset)
                               : ::preadv(fd, iov, cnt, offset);
    ++counters_.syscalls;
    if (n < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      size_t left = 0;
      for (size_t k = 0; k < iovcnt; ++k) left += iov[k].iov_len;
      status = Status::IoError(StrFormat(
          "%s(%lld, +%lld) failed: %s", is_write ? "pwritev" : "preadv",
          (long long)offset, (long long)left, strerror(err)));
      break;
    }
    if (n == 0) {
      status = Status::IoError(
          StrFormat("short %s at offset %lld", is_write ? "write" : "read",
                    (long long)offset));
      break;
    }
    // Drop the iovecs the call finished; trim a partly moved one.
    offset += n;
    size_t moved = static_cast<size_t>(n);
    while (iovcnt > 0 && moved >= iov->iov_len) {
      moved -= iov->iov_len;
      ++iov;
      --iovcnt;
    }
    if (moved > 0) {
      iov->iov_base = static_cast<char*>(iov->iov_base) + moved;
      iov->iov_len -= moved;
    }
  }
  counters_.io_time_s += std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  return status;
}

Status FileBackend::ReadSync(int target, int64_t offset, int64_t size,
                             void* buf) {
  LDB_RETURN_IF_ERROR(CheckRange("ReadSync", target, offset, size));
  std::lock_guard<std::mutex> lock(mu_);
  return ExecuteLocked(target, offset, size, /*is_write=*/false, buf);
}

Status FileBackend::WriteSync(int target, int64_t offset, int64_t size,
                              const void* buf) {
  LDB_RETURN_IF_ERROR(CheckRange("WriteSync", target, offset, size));
  std::lock_guard<std::mutex> lock(mu_);
  return ExecuteLocked(target, offset, size, /*is_write=*/true,
                       const_cast<void*>(buf));
}

Status FileBackend::TransferChunks(const std::vector<TargetChunk>& chunks,
                                   bool is_write, void* buf) {
  const char* op = is_write ? "TransferChunks write" : "TransferChunks read";
  if (buf == nullptr) {
    return Status::InvalidArgument(StrFormat("%s: null buffer", op));
  }
  for (const TargetChunk& c : chunks) {
    const int64_t offset =
        c.target >= 0 && c.target < geometry_.num_targets
            ? DataPlaneOffset(geometry_, c)
            : c.offset;
    LDB_RETURN_IF_ERROR(CheckRange(op, c.target, offset, c.size));
  }

  std::lock_guard<std::mutex> lock(mu_);
  const int64_t lbs = geometry_.logical_block_bytes;
  pieces_.clear();
  char* pos = static_cast<char*>(buf);
  for (const TargetChunk& c : chunks) {
    const int64_t offset = DataPlaneOffset(geometry_, c);
    // A chunk joins a run when O_DIRECT (or the buffered fd) takes it in
    // place: block-aligned on media and, under O_DIRECT, in memory too.
    const bool direct = targets_[static_cast<size_t>(c.target)].direct_fd >= 0;
    if (offset % lbs == 0 && c.size % lbs == 0 &&
        (!direct || reinterpret_cast<uintptr_t>(pos) %
                            static_cast<uintptr_t>(lbs) ==
                        0)) {
      pieces_.push_back(Piece{c.target, offset, c.size, pos});
    } else {
      LDB_RETURN_IF_ERROR(ExecuteLocked(c.target, offset, c.size, is_write,
                                        pos));
    }
    pos += c.size;
  }

  std::sort(pieces_.begin(), pieces_.end(),
            [](const Piece& a, const Piece& b) {
              return a.target != b.target ? a.target < b.target
                                          : a.offset < b.offset;
            });
  for (size_t first = 0; first < pieces_.size();) {
    const Piece& head = pieces_[first];
    int64_t end = head.offset;
    size_t last = first;
    iov_.clear();
    while (last < pieces_.size() && pieces_[last].target == head.target &&
           pieces_[last].offset == end) {
      iov_.push_back(iovec{pieces_[last].data,
                           static_cast<size_t>(pieces_[last].size)});
      end += pieces_[last].size;
      ++last;
    }
    const Target& target = targets_[static_cast<size_t>(head.target)];
    const int fd =
        target.direct_fd >= 0 ? target.direct_fd : target.buffered_fd;
    const Status status =
        Transfer(fd, is_write, head.offset, iov_.data(), iov_.size());
    if (!status.ok()) {
      ++counters_.errors;
      return status;
    }
    const uint64_t n = static_cast<uint64_t>(last - first);
    if (is_write) {
      counters_.writes += n;
      counters_.bytes_written += end - head.offset;
    } else {
      counters_.reads += n;
      counters_.bytes_read += end - head.offset;
    }
    first = last;
  }
  return Status::Ok();
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

BackendCounters FileBackend::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

}  // namespace ldb
