#include "exec/operators/bitmap_filter.h"

#include "exec/vector_batch.h"

namespace starshare {
namespace {

// Streams one index member's candidate rows in [row_begin, row_end) — its
// bitmap sliced word-at-a-time, residual-filtered — through
// `sink(keys, values, n)` in ascending row order, batch-at-a-time.
template <typename Sink>
void ForEachIndexMemberBatch(const Bitmap& bitmap, uint64_t row_begin,
                             uint64_t row_end, const ResidualFilter& residual,
                             const BoundQuery& bound, size_t batch_rows,
                             Sink&& sink) {
  if (batch_rows == 0) batch_rows = kDefaultBatchRows;
  std::vector<uint64_t> rows;
  rows.reserve(batch_rows);
  std::vector<uint64_t> keys;
  std::vector<double> values;
  const auto flush = [&] {
    if (rows.empty()) return;
    if (!residual.empty()) {
      size_t kept = 0;
      for (const uint64_t row : rows) {
        if (residual.Matches(row)) rows[kept++] = row;
      }
      rows.resize(kept);
      if (rows.empty()) return;
    }
    keys.resize(rows.size());
    values.resize(rows.size());
    bound.translator().PackRows(rows.data(), rows.size(), keys.data());
    const double* measures = bound.measure_data();
    for (size_t i = 0; i < rows.size(); ++i) values[i] = measures[rows[i]];
    sink(keys.data(), values.data(), keys.size());
    rows.clear();
  };
  bitmap.ForEachSetBitInRange(row_begin, row_end, [&](uint64_t row) {
    rows.push_back(row);
    if (rows.size() == batch_rows) flush();
  });
  flush();
}

}  // namespace

bool BitmapFilterOp::NextBatch(ClassBatch& batch) {
  if (!child_->NextBatch(batch)) return false;
  const bool probe = batch.positions != nullptr;
  if (probe) {
    ProcessProbe(batch);
  } else {
    ProcessScan(batch);
  }
  return true;
}

void BitmapFilterOp::ProcessScan(const ClassBatch& batch) {
  for (size_t k = 0; k < bitmaps_.size(); ++k) {
    sel_.clear();
    bitmaps_[k].ForEachSetBitInRange(
        batch.begin, batch.end, [&](uint64_t row) { sel_.push_back(row); });
    const ResidualFilter& residual = residuals_[k];
    if (!residual.empty()) {
      size_t kept = 0;
      for (const uint64_t row : sel_) {
        if (residual.Matches(row)) sel_[kept++] = row;
      }
      sel_.resize(kept);
    }
    EmitRows(bound_[slot_base_ + k], sel_.data(), sel_.size(),
             (*batch.matches)[slot_base_ + k]);
  }
}

void BitmapFilterOp::ProcessProbe(const ClassBatch& batch) {
  for (size_t k = 0; k < bitmaps_.size(); ++k) {
    QueryMatchBatch& out = (*batch.matches)[slot_base_ + k];
    ForEachIndexMemberBatch(
        bitmaps_[k], batch.begin, batch.end, residuals_[k],
        bound_[slot_base_ + k], batch_rows_,
        [&out](const uint64_t* keys, const double* values, size_t n) {
          out.Append(keys, values, n);
        });
  }
}

}  // namespace starshare
