#ifndef LAYOUTDB_WORKLOAD_REQUEST_SLAB_H_
#define LAYOUTDB_WORKLOAD_REQUEST_SLAB_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "storage/io_request.h"
#include "util/check.h"
#include "util/status.h"

namespace ldb {

/// The object-level (pre-striping) event of a request issued at `now`:
/// target -1, the object-relative offset in both offset fields.
inline IoEvent LogicalEvent(double now, uint64_t seq, ObjectId object,
                            int64_t offset, int64_t size, bool is_write) {
  IoEvent ev;
  ev.submit_time = now;
  ev.seq = seq;
  ev.target = -1;
  ev.object = object;
  ev.offset = offset;
  ev.logical_offset = offset;
  ev.size = size;
  ev.is_write = is_write;
  return ev;
}

/// Per-request context slab for object-level requests that the volume
/// manager splits into target chunks. One recycled slot holds a request's
/// pending-chunk count, its logical (object-level) IoEvent and a caller
/// payload. A chunk completion captures only {slab, index}, small enough
/// for std::function to store inline, so once the slab has grown to the
/// peak number of requests in flight, issuing and completing requests
/// allocates nothing.
template <typename Payload>
class RequestSlab {
 public:
  struct Request {
    int pending = 0;  ///< chunks still in flight
    IoEvent event;    ///< complete_time is set when the last chunk finishes
    Payload payload{};
  };
  /// Called once per request, when its last chunk completes. It receives a
  /// copy: the slot is already free, so the callback may open requests.
  using Done = std::function<void(const Request&)>;

  explicit RequestSlab(Done on_done) : on_done_(std::move(on_done)) {}

  RequestSlab(const RequestSlab&) = delete;
  RequestSlab& operator=(const RequestSlab&) = delete;

  /// Claims a slot for a request split into `chunks` (> 0) target chunks;
  /// the caller fills its event and payload through at().
  uint32_t Open(int chunks) {
    LDB_CHECK_GT(chunks, 0);
    uint32_t index;
    if (!free_.empty()) {
      index = free_.back();
      free_.pop_back();
    } else {
      index = static_cast<uint32_t>(slots_.size());
      slots_.emplace_back();
    }
    slots_[index] = Request{};
    slots_[index].pending = chunks;
    return index;
  }

  Request& at(uint32_t index) { return slots_[index]; }

  /// Records one finished chunk of request `index`.
  void ChunkDone(uint32_t index, double when) {
    Request& r = slots_[index];
    if (--r.pending > 0) return;
    r.event.complete_time = when;
    const Request done = r;
    free_.push_back(index);
    on_done_(done);
  }

  /// The completion of one chunk of request `index`; it ignores the
  /// chunk's status, as the request path always has.
  auto ChunkCompletion(uint32_t index) {
    return [this, index](double when, const Status&) {
      ChunkDone(index, when);
    };
  }

 private:
  Done on_done_;
  std::vector<Request> slots_;
  std::vector<uint32_t> free_;
};

}  // namespace ldb

#endif  // LAYOUTDB_WORKLOAD_REQUEST_SLAB_H_
