#include "trace/trace.h"

#include <algorithm>

namespace ldb {

double IoTrace::Duration() const {
  if (events_.empty()) return 0.0;
  double min_submit = events_.front().submit_time;
  double max_complete = events_.front().complete_time;
  for (const IoEvent& ev : events_) {
    min_submit = std::min(min_submit, ev.submit_time);
    max_complete = std::max(max_complete, ev.complete_time);
  }
  return max_complete - min_submit;
}

}  // namespace ldb
