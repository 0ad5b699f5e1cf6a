// The paper's three shared star-join operators (§3): the reason related
// queries should be planned onto a common base table at all.
//
// All operators require every query to be answerable from `view` and return
// per-query results in input order. Queries sharing a class may have
// *disjoint* predicates — sharing is of the scan / probe / dimension hash
// tables, not of selections.

#ifndef STARSHARE_EXEC_SHARED_OPERATORS_H_
#define STARSHARE_EXEC_SHARED_OPERATORS_H_

#include <vector>

#include "common/status.h"
#include "cube/materialized_view.h"
#include "exec/vector_batch.h"
#include "parallel/policy.h"
#include "query/query.h"
#include "query/result.h"
#include "storage/disk_model.h"

namespace starshare {

// Maximum queries per shared class (per-dimension pass masks are 32-bit).
inline constexpr size_t kMaxClassQueries = 32;

// Per-class outcome of a fallible shared operator: `statuses[i]` pairs with
// `results[i]` (same order as the plain operators — hash members first for
// the hybrid). A member with an error status produced no result, but the
// other members' results are still valid: sharing couples the queries'
// I/O, not their fates.
struct SharedOutcome {
  std::vector<QueryResult> results;
  std::vector<Status> statuses;
};

// All operators take a BatchConfig giving the rows per CPU batch. Every
// batch size produces bit-identical results and charges exactly the same
// IoStats (batching regroups CPU work only; see DESIGN.md "Vectorized
// execution model").

// Shared scan hash-based star join (§3.1, Fig. 2): one scan of `view`, one
// pass-mask table per restricted dimension shared by all queries, one
// aggregation per query.
std::vector<QueryResult> SharedScanStarJoin(
    const StarSchema& schema,
    const std::vector<const DimensionalQuery*>& queries,
    const MaterializedView& view, DiskModel& disk,
    const BatchConfig& batch = BatchConfig());

// Shared join-index-based star join (§3.2, Fig. 4): per-query result
// bitmaps are ORed, the base table is probed once with the union, and each
// retrieved tuple is routed to the queries whose bitmap has its position
// set ("Filter tuples").
std::vector<QueryResult> SharedIndexStarJoin(
    const StarSchema& schema,
    const std::vector<const DimensionalQuery*>& queries,
    const MaterializedView& view, DiskModel& disk,
    const BatchConfig& batch = BatchConfig());

// Shared scan for hash-based + index-based star join (§3.3, Fig. 5):
// `hash_queries` run as a shared scan; each of `index_queries` builds its
// result bitmap from the indexes but, instead of probing, filters the
// scanned tuples through the bitmap — its probe I/O is absorbed by the scan
// the hash queries need anyway. Results: hash queries first, then index
// queries, each in input order.
std::vector<QueryResult> SharedHybridStarJoin(
    const StarSchema& schema,
    const std::vector<const DimensionalQuery*>& hash_queries,
    const std::vector<const DimensionalQuery*>& index_queries,
    const MaterializedView& view, DiskModel& disk,
    const BatchConfig& batch = BatchConfig());

// Fallible variants with graceful per-member degradation. A fault hitting
// one member during its private phase (binding at "exec.bind_query",
// bitmap construction at "exec.build_bitmap" / "disk.read_index", keyed by
// query id) fails only that member; the survivors run the shared pass and
// produce normal results. A fault during the shared pass itself (the scan
// or probe, "disk.read_seq"/"disk.read_rand") fails every surviving
// member. The whole call returns an error Status only for malformed input
// (nothing to execute). With no faults armed these evaluate exactly like
// the plain operators above, which remain for callers without a recovery
// path.
Result<SharedOutcome> TrySharedIndexStarJoin(
    const StarSchema& schema,
    const std::vector<const DimensionalQuery*>& queries,
    const MaterializedView& view, DiskModel& disk,
    const BatchConfig& batch = BatchConfig());

Result<SharedOutcome> TrySharedHybridStarJoin(
    const StarSchema& schema,
    const std::vector<const DimensionalQuery*>& hash_queries,
    const std::vector<const DimensionalQuery*>& index_queries,
    const MaterializedView& view, DiskModel& disk,
    const BatchConfig& batch = BatchConfig());

// Morsel-parallel entry points: the same unified class pipeline with an
// engaged policy — parallelism is a property of the pipeline driver, not a
// separate operator family. The merge replays every aggregation in serial
// row order, so results are bit-identical to the serial operators (and
// merged IoStats exactly equal) at any thread count and morsel size; the
// failure contract matches the Try* variants. See DESIGN.md "Parallel
// execution model".
Result<SharedOutcome> ParallelSharedScanStarJoin(
    const StarSchema& schema,
    const std::vector<const DimensionalQuery*>& queries,
    const MaterializedView& view, DiskModel& disk,
    const ParallelPolicy& policy);

Result<SharedOutcome> ParallelSharedIndexStarJoin(
    const StarSchema& schema,
    const std::vector<const DimensionalQuery*>& queries,
    const MaterializedView& view, DiskModel& disk,
    const ParallelPolicy& policy);

Result<SharedOutcome> ParallelSharedHybridStarJoin(
    const StarSchema& schema,
    const std::vector<const DimensionalQuery*>& hash_queries,
    const std::vector<const DimensionalQuery*>& index_queries,
    const MaterializedView& view, DiskModel& disk,
    const ParallelPolicy& policy);

}  // namespace starshare

#endif  // STARSHARE_EXEC_SHARED_OPERATORS_H_
