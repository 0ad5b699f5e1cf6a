// Star-join filter (physical node kind kStarJoinFilter): evaluates the
// shared dimension pass masks (§3.1, Fig. 2) over each pulled scan batch
// and emits every hash member's matches. It works column-at-a-time into
// per-row masks, then into per-member selection vectors.

#ifndef STARSHARE_EXEC_OPERATORS_STAR_JOIN_FILTER_H_
#define STARSHARE_EXEC_OPERATORS_STAR_JOIN_FILTER_H_

#include <vector>

#include "exec/operators/operator.h"
#include "exec/shared_star_join_internal.h"
#include "storage/disk_model.h"

namespace starshare {

class StarJoinFilterOp : public BatchOperator {
 public:
  // `bound` holds the class's live members, hash members in slots
  // [0, n_hash). Emits only those slots; index members are handled by a
  // BitmapFilterOp stacked above (§3.3).
  StarJoinFilterOp(BatchOperator* child, DiskModel& disk,
                   const std::vector<internal::SharedDimFilter>& filters,
                   uint32_t all_mask, const std::vector<BoundQuery>& bound,
                   size_t n_hash)
      : child_(child),
        disk_(disk),
        filters_(filters),
        all_mask_(all_mask),
        bound_(bound),
        n_hash_(n_hash) {}

  bool NextBatch(ClassBatch& batch) override;

 private:
  void Process(const ClassBatch& batch);

  BatchOperator* child_;
  DiskModel& disk_;
  const std::vector<internal::SharedDimFilter>& filters_;
  uint32_t all_mask_;
  const std::vector<BoundQuery>& bound_;
  size_t n_hash_;

  std::vector<uint32_t> masks_;  // per-row pass masks of the current batch
  std::vector<uint64_t> sel_;    // selection vector (absolute row ids)
};

}  // namespace starshare

#endif  // STARSHARE_EXEC_OPERATORS_STAR_JOIN_FILTER_H_
