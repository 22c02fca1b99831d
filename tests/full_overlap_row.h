// Test-side overlap rows that store every entry, zeros included. Such a row
// is a valid CSR row — strictly increasing ids, diagonal present — so it
// checks that the model prices a row exactly like its zero-trimmed form
// (SetOverlapRow) up to summation order. Its entry k sits at index k, so
// tests can edit it in place.

#ifndef LAYOUTDB_TESTS_FULL_OVERLAP_ROW_H_
#define LAYOUTDB_TESTS_FULL_OVERLAP_ROW_H_

#include <numeric>
#include <vector>

#include "model/workload.h"

namespace ldb {

/// Sets `w`'s overlap row to all of `row` (row[k] = O_i[k]).
inline void SetFullOverlapRow(WorkloadDesc* w, const std::vector<double>& row) {
  w->overlap_index.resize(row.size());
  std::iota(w->overlap_index.begin(), w->overlap_index.end(), 0);
  w->overlap_value = row;
}

}  // namespace ldb

#endif  // LAYOUTDB_TESTS_FULL_OVERLAP_ROW_H_
