#include "exec/operators/star_join_filter.h"

#include <algorithm>

namespace starshare {

bool StarJoinFilterOp::NextBatch(ClassBatch& batch) {
  if (!child_->NextBatch(batch)) return false;
  // One dimension-table hash probe per scanned row per shared filter,
  // whether or not the row survives (the paper's CPU cost model).
  disk_.CountHashProbes((batch.end - batch.begin) * filters_.size());
  if (n_hash_ > 0) Process(batch);
  return true;
}

void StarJoinFilterOp::Process(const ClassBatch& batch) {
  const size_t n = static_cast<size_t>(batch.end - batch.begin);
  masks_.resize(n);
  if (filters_.empty()) {
    std::fill(masks_.begin(), masks_.end(), all_mask_);
  } else {
    // Column-at-a-time: load the first filter's masks, then AND the rest.
    // KeyColumn::ForEach decodes packed key words 64 bits at a time into
    // the fused mask lookup, so compressed batches never materialize an
    // intermediate int32 array.
    uint32_t* masks = masks_.data();
    const uint64_t begin = batch.begin;
    const internal::SharedDimFilter& first = filters_[0];
    const uint32_t* fmasks = first.masks.data();
    first.col->ForEach(begin, batch.end, [&](uint64_t row, int32_t v) {
      masks[row - begin] = fmasks[static_cast<uint32_t>(v)];
    });
    for (size_t f = 1; f < filters_.size(); ++f) {
      const internal::SharedDimFilter& filter = filters_[f];
      const uint32_t* fm = filter.masks.data();
      filter.col->ForEach(begin, batch.end, [&](uint64_t row, int32_t v) {
        masks[row - begin] &= fm[static_cast<uint32_t>(v)];
      });
    }
  }
  uint32_t any = 0;
  for (size_t i = 0; i < n; ++i) any |= masks_[i];
  for (size_t qi = 0; qi < n_hash_; ++qi) {
    const uint32_t bit = 1u << qi;
    if ((any & bit) == 0) continue;
    sel_.clear();
    for (size_t i = 0; i < n; ++i) {
      if ((masks_[i] & bit) != 0) sel_.push_back(batch.begin + i);
    }
    EmitRows(bound_[qi], sel_.data(), sel_.size(), (*batch.matches)[qi]);
  }
}

}  // namespace starshare
