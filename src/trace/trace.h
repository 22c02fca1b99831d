#ifndef LAYOUTDB_TRACE_TRACE_H_
#define LAYOUTDB_TRACE_TRACE_H_

#include <cstddef>
#include <vector>

#include "storage/io_request.h"

namespace ldb {

/// An I/O trace: the record of every request completed during a simulation
/// run, in completion order (hang Add on StorageSystem::set_observer to
/// collect one). The analogue of the kernel block traces the paper
/// collected from its instrumented Linux kernel (Section 6.1).
class IoTrace {
 public:
  IoTrace() = default;

  void Add(const IoEvent& ev) { events_.push_back(ev); }

  const std::vector<IoEvent>& events() const { return events_; }
  size_t size() const { return events_.size(); }
  bool empty() const { return events_.empty(); }
  void Clear() { events_.clear(); }

  /// Trace duration: max completion time minus min submit time (0 if empty).
  double Duration() const;

 private:
  std::vector<IoEvent> events_;
};

}  // namespace ldb

#endif  // LAYOUTDB_TRACE_TRACE_H_
