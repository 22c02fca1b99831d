#include "model/layout_model.h"

#include "util/check.h"

namespace ldb {

LvmLayoutModel::LvmLayoutModel(int64_t stripe_bytes)
    : stripe_bytes_(stripe_bytes) {
  LDB_CHECK_GT(stripe_bytes_, 0);
}

double LvmLayoutModel::MeanSize(const WorkloadDesc& w) {
  return w.mean_size();
}

}  // namespace ldb
