// Bitmap filter (physical node kind kBitmapFilter): filters each pulled
// batch through every index member's private candidate bitmap + residual
// predicates and emits those members' matches (slots [slot_base,
// slot_base + bitmaps.size())). Stacked over a ScanSourceOp chain it is the
// hybrid §3.3 index side; over a ProbeSourceOp it routes the shared §3.2
// probe stream per member. Streams are ascending-row per member on both
// paths, identical to the pre-DAG operators bit for bit.

#ifndef STARSHARE_EXEC_OPERATORS_BITMAP_FILTER_H_
#define STARSHARE_EXEC_OPERATORS_BITMAP_FILTER_H_

#include <vector>

#include "exec/operators/operator.h"
#include "exec/star_join.h"
#include "index/bitmap.h"

namespace starshare {

class BitmapFilterOp : public BatchOperator {
 public:
  BitmapFilterOp(BatchOperator* child, const std::vector<Bitmap>& bitmaps,
                 const std::vector<ResidualFilter>& residuals,
                 const std::vector<BoundQuery>& bound, size_t slot_base,
                 size_t batch_rows)
      : child_(child),
        bitmaps_(bitmaps),
        residuals_(residuals),
        bound_(bound),
        slot_base_(slot_base),
        batch_rows_(batch_rows) {}

  bool NextBatch(ClassBatch& batch) override;

 private:
  // Scan mode (§3.3): slice each member's bitmap over the batch's row span.
  void ProcessScan(const ClassBatch& batch);
  // Probe mode (§3.2): emit each member's own candidates within the probed
  // span, batch_rows_ at a time.
  void ProcessProbe(const ClassBatch& batch);

  BatchOperator* child_;
  const std::vector<Bitmap>& bitmaps_;
  const std::vector<ResidualFilter>& residuals_;
  const std::vector<BoundQuery>& bound_;
  size_t slot_base_;
  size_t batch_rows_;

  std::vector<uint64_t> sel_;  // selection vector (absolute row ids)
};

}  // namespace starshare

#endif  // STARSHARE_EXEC_OPERATORS_BITMAP_FILTER_H_
