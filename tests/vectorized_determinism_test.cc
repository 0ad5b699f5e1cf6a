// The vectorized engine's core promise (DESIGN.md "Vectorized execution
// model"): batch-at-a-time execution is BIT-identical to the single-query
// star joins of exec/star_join.h — same result doubles — for every shared
// operator, the view builder, any batch size and any thread count, and it
// charges exactly the IoStats of the batch_rows = 1 run. Nothing here uses
// tolerances: batches are contiguous ascending row ranges and every kernel
// preserves ascending row order per query, so the aggregation fold is the
// same floating-point sequence as the single-query operators' row loop.

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/paper_workload.h"
#include "cube/view_builder.h"
#include "exec/shared_operators.h"
#include "exec/star_join.h"
#include "parallel/thread_pool.h"
#include "schema/data_generator.h"
#include "tests/test_util.h"

namespace starshare {
namespace {

using testing::BitIdentical;
using testing::MakeQuery;
using testing::SmallSchema;

// The single-query oracle of a shared class: the Fig. 1 hash star join for
// each hash member, the Fig. 3 index star join for each index member, in
// the shared operators' result order (hash members first). Both fold the
// view's matching rows in ascending row order.
std::vector<QueryResult> SingleQueryOracle(
    const StarSchema& schema,
    const std::vector<const DimensionalQuery*>& hash,
    const std::vector<const DimensionalQuery*>& index,
    const MaterializedView& view) {
  DiskModel scratch;
  std::vector<QueryResult> results;
  for (const DimensionalQuery* q : hash) {
    results.push_back(HashStarJoin(schema, *q, view, scratch));
  }
  for (const DimensionalQuery* q : index) {
    results.push_back(IndexStarJoin(schema, *q, view, scratch));
  }
  return results;
}

void ExpectOutcomeMatchesOracle(const std::vector<QueryResult>& oracle,
                                const SharedOutcome& outcome,
                                const std::string& label) {
  ASSERT_EQ(oracle.size(), outcome.results.size()) << label;
  for (size_t i = 0; i < oracle.size(); ++i) {
    EXPECT_TRUE(outcome.statuses[i].ok()) << label << " member " << i;
    EXPECT_TRUE(BitIdentical(oracle[i], outcome.results[i]))
        << label << " member " << i
        << " diverged from the single-query oracle";
  }
}

void ExpectTablesBitIdentical(const Table& a, const Table& b,
                              const char* label) {
  ASSERT_EQ(a.num_rows(), b.num_rows()) << label;
  ASSERT_EQ(a.num_key_columns(), b.num_key_columns()) << label;
  ASSERT_EQ(a.num_measures(), b.num_measures()) << label;
  for (uint64_t r = 0; r < a.num_rows(); ++r) {
    for (size_t c = 0; c < a.num_key_columns(); ++c) {
      ASSERT_EQ(a.key(c, r), b.key(c, r)) << label << " row " << r;
    }
    for (size_t m = 0; m < a.num_measures(); ++m) {
      const double x = a.measure(r, m), y = b.measure(r, m);
      ASSERT_EQ(std::memcmp(&x, &y, sizeof(double)), 0)
          << label << " row " << r << " measure " << m << " differs";
    }
  }
}

// A built view's cells as a canonical SUM result over `target`, so tables
// compare against the single-query oracle.
QueryResult TableAsResult(const Table& table, const GroupBySpec& target) {
  QueryResult result(target, AggOp::kSum);
  std::vector<int32_t> keys(table.num_key_columns());
  for (uint64_t r = 0; r < table.num_rows(); ++r) {
    for (size_t c = 0; c < keys.size(); ++c) keys[c] = table.key(c, r);
    result.AddRow(keys, table.measure(r, 0));
  }
  result.Canonicalize();
  return result;
}

// Mixed targets, predicate levels, and every aggregate kind, so key
// translation, selection vectors and every AddBatch specialization are all
// exercised (same mix as the parallel determinism suite).
std::vector<DimensionalQuery> MixedQueries(const StarSchema& schema) {
  std::vector<DimensionalQuery> qs;
  qs.push_back(MakeQuery(schema, 1, "X'Y'Z", {{"X", 1, {0, 2}}}));
  qs.push_back(MakeQuery(schema, 2, "X''Y''Z'", {{"Y", 0, {1, 3, 5, 7}}}));
  qs.push_back(MakeQuery(schema, 3, "XY'Z'", {{"Z", 1, {0}}, {"X", 2, {1}}},
                         AggOp::kMin));
  qs.push_back(MakeQuery(schema, 4, "X'Z'", {}, AggOp::kMax));
  qs.push_back(MakeQuery(schema, 5, "Y''Z", {{"Z", 0, {2, 4, 6}}},
                         AggOp::kCount));
  qs.push_back(MakeQuery(schema, 6, "X''", {{"Y", 1, {2}}}, AggOp::kAvg));
  return qs;
}

// Batch sizes that stress the regrouping edges: degenerate single-row
// batches (the I/O reference, hence first), a size that never divides a
// page, and the default.
const size_t kBatchSizes[] = {1, 7, kDefaultBatchRows};

class VectorizedDeterminismTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DataGenerator gen(schema_, {.num_rows = 50'000, .seed = 4242});
    table_ = gen.Generate("base");
    table_->set_id(1);
    view_ = std::make_unique<MaterializedView>(
        schema_, GroupBySpec::Base(schema_), table_.get());
    view_->ComputeStats(schema_);
    for (size_t d = 0; d < schema_.num_dims(); ++d) {
      DiskModel scratch;
      view_->BuildIndex(schema_, d, scratch);
    }
    queries_ = MixedQueries(schema_);
    for (const auto& q : queries_) query_ptrs_.push_back(&q);
  }

  StarSchema schema_ = SmallSchema();
  std::unique_ptr<Table> table_;
  std::unique_ptr<MaterializedView> view_;
  std::vector<DimensionalQuery> queries_;
  std::vector<const DimensionalQuery*> query_ptrs_;
};

TEST_F(VectorizedDeterminismTest, SharedScanBitIdenticalAtEveryBatchSize) {
  const std::vector<QueryResult> oracle =
      SingleQueryOracle(schema_, query_ptrs_, {}, *view_);
  IoStats reference;
  for (const size_t batch_rows : kBatchSizes) {
    DiskModel disk;
    auto outcome = TrySharedHybridStarJoin(schema_, query_ptrs_, {}, *view_,
                                           disk, BatchConfig{batch_rows});
    ASSERT_TRUE(outcome.ok()) << "batch " << batch_rows;
    ExpectOutcomeMatchesOracle(oracle, *outcome,
                               "scan batch " + std::to_string(batch_rows));
    if (batch_rows == 1) reference = disk.stats();
    EXPECT_EQ(disk.stats(), reference)
        << "batch " << batch_rows
        << " scan charged different I/O than batch_rows = 1";
  }
}

TEST_F(VectorizedDeterminismTest, SharedIndexBitIdenticalAtEveryBatchSize) {
  std::vector<const DimensionalQuery*> members = {
      query_ptrs_[0], query_ptrs_[2], query_ptrs_[4]};
  const std::vector<QueryResult> oracle =
      SingleQueryOracle(schema_, {}, members, *view_);

  IoStats reference;
  for (const size_t batch_rows : kBatchSizes) {
    DiskModel disk;
    auto outcome = TrySharedIndexStarJoin(schema_, members, *view_, disk,
                                          BatchConfig{batch_rows});
    ASSERT_TRUE(outcome.ok()) << "batch " << batch_rows;
    ExpectOutcomeMatchesOracle(oracle, *outcome,
                               "index batch " + std::to_string(batch_rows));
    if (batch_rows == 1) reference = disk.stats();
    EXPECT_EQ(disk.stats(), reference)
        << "batch " << batch_rows
        << " index join charged different I/O than batch_rows = 1";
  }
}

TEST_F(VectorizedDeterminismTest, SharedHybridBitIdenticalAtEveryBatchSize) {
  std::vector<const DimensionalQuery*> hash = {query_ptrs_[1], query_ptrs_[3],
                                               query_ptrs_[5]};
  std::vector<const DimensionalQuery*> index = {query_ptrs_[0],
                                                query_ptrs_[4]};
  const std::vector<QueryResult> oracle =
      SingleQueryOracle(schema_, hash, index, *view_);

  IoStats reference;
  for (const size_t batch_rows : kBatchSizes) {
    DiskModel disk;
    auto outcome = TrySharedHybridStarJoin(schema_, hash, index, *view_,
                                           disk, BatchConfig{batch_rows});
    ASSERT_TRUE(outcome.ok()) << "batch " << batch_rows;
    ExpectOutcomeMatchesOracle(oracle, *outcome,
                               "hybrid batch " + std::to_string(batch_rows));
    if (batch_rows == 1) reference = disk.stats();
    EXPECT_EQ(disk.stats(), reference)
        << "batch " << batch_rows
        << " hybrid charged different I/O than batch_rows = 1";
  }
}

TEST_F(VectorizedDeterminismTest, ParallelMatchesSingleQueryOracles) {
  // The acceptance chain in one test: the single-query operators (the 1998
  // reference) == parallel batches at 1 and 4 threads in results, and the
  // serial batch_rows = 1 run == parallel in charged IoStats.
  std::vector<const DimensionalQuery*> hash = {query_ptrs_[1], query_ptrs_[3],
                                               query_ptrs_[5]};
  std::vector<const DimensionalQuery*> index = {query_ptrs_[0],
                                                query_ptrs_[4]};
  const std::vector<QueryResult> oracle =
      SingleQueryOracle(schema_, hash, index, *view_);
  const std::vector<QueryResult> index_oracle =
      SingleQueryOracle(schema_, {}, index, *view_);

  DiskModel reference_disk;
  ASSERT_TRUE(TrySharedHybridStarJoin(schema_, hash, index, *view_,
                                      reference_disk, BatchConfig{1})
                  .ok());
  DiskModel index_reference_disk;
  ASSERT_TRUE(TrySharedIndexStarJoin(schema_, index, *view_,
                                     index_reference_disk, BatchConfig{1})
                  .ok());

  for (const size_t threads : {1u, 4u}) {
    ThreadPool pool(threads);
    ParallelPolicy policy{&pool, threads, 0, BatchConfig()};
    DiskModel disk;
    auto parallel = ParallelSharedHybridStarJoin(schema_, hash, index, *view_,
                                                 disk, policy);
    ASSERT_TRUE(parallel.ok()) << threads << " threads";
    ExpectOutcomeMatchesOracle(oracle, *parallel, "parallel hybrid");
    EXPECT_EQ(disk.stats(), reference_disk.stats())
        << threads << "-thread hybrid charged different I/O "
        << "than serial batch_rows = 1";

    DiskModel index_disk;
    auto index_parallel = ParallelSharedIndexStarJoin(schema_, index, *view_,
                                                      index_disk, policy);
    ASSERT_TRUE(index_parallel.ok()) << threads << " threads";
    ExpectOutcomeMatchesOracle(index_oracle, *index_parallel,
                               "parallel index");
    EXPECT_EQ(index_disk.stats(), index_reference_disk.stats());
  }
}

TEST_F(VectorizedDeterminismTest, ViewBuilderBitIdenticalToOracle) {
  const char* const kTargets[] = {"X'Y'Z", "X''Z'", "Y'"};
  std::vector<GroupBySpec> targets;
  std::vector<QueryResult> oracle;
  for (const char* text : kTargets) {
    targets.push_back(GroupBySpec::Parse(text, schema_).value());
    // A view cell is the SUM of its rows folded in ascending row order:
    // exactly an unrestricted single-query SUM over the same source.
    const DimensionalQuery q = MakeQuery(schema_, 100, text, {});
    DiskModel scratch;
    oracle.push_back(HashStarJoin(schema_, q, *view_, scratch));
  }

  ViewBuilder reference_builder(schema_);
  reference_builder.set_batch_config(BatchConfig{1});
  DiskModel reference_disk;
  const auto reference =
      reference_builder.BuildMany(*view_, targets, reference_disk);
  ASSERT_EQ(reference.size(), targets.size());
  for (size_t i = 0; i < targets.size(); ++i) {
    EXPECT_TRUE(BitIdentical(TableAsResult(*reference[i], targets[i]),
                             oracle[i]))
        << kTargets[i] << " diverged from the single-query oracle";
  }

  for (const size_t batch_rows : kBatchSizes) {
    ViewBuilder builder(schema_);
    builder.set_batch_config(BatchConfig{batch_rows});
    DiskModel disk;
    const auto built = builder.BuildMany(*view_, targets, disk);
    ASSERT_EQ(built.size(), reference.size());
    for (size_t i = 0; i < reference.size(); ++i) {
      ExpectTablesBitIdentical(*built[i], *reference[i], "BuildMany");
    }
    EXPECT_EQ(disk.stats(), reference_disk.stats()) << "batch " << batch_rows;
  }

  // BuildManyParallel at the default batch size, 1 and 4 threads.
  ViewBuilder builder(schema_);
  for (const size_t threads : {1u, 4u}) {
    ThreadPool pool(threads);
    ParallelPolicy policy{&pool, threads, 0, BatchConfig()};
    DiskModel disk;
    const auto built =
        builder.BuildManyParallel(*view_, targets, disk, policy);
    ASSERT_EQ(built.size(), reference.size());
    for (size_t i = 0; i < reference.size(); ++i) {
      ExpectTablesBitIdentical(*built[i], *reference[i], "BuildManyParallel");
    }
    EXPECT_EQ(disk.stats(), reference_disk.stats()) << threads << " threads";
  }
}

TEST_F(VectorizedDeterminismTest, RefreshBitIdenticalToOracle) {
  const char* const kTarget = "X'Y'Z";
  const GroupBySpec target = GroupBySpec::Parse(kTarget, schema_).value();

  // Refresh folds each existing cell's value into a fresh zero, then the
  // delta's rows in ascending row order. Replay that fold directly over the
  // single-query oracle's cells and the delta (here the base view itself).
  DiskModel scratch;
  const QueryResult built_oracle = HashStarJoin(
      schema_, MakeQuery(schema_, 100, kTarget, {}), *view_, scratch);
  std::map<std::vector<int32_t>, double> cells;
  for (const auto& row : built_oracle.rows()) cells[row.keys] += row.value;
  const auto retained = target.RetainedDims(schema_);
  std::vector<int32_t> group(retained.size());
  for (uint64_t r = 0; r < table_->num_rows(); ++r) {
    for (size_t i = 0; i < retained.size(); ++i) {
      const size_t d = retained[i];
      group[i] = schema_.dim(d).MapUp(0, target.level(d), table_->key(d, r));
    }
    cells[group] += table_->measure(r, 0);
  }
  QueryResult refresh_oracle(target, AggOp::kSum);
  for (const auto& [keys, value] : cells) refresh_oracle.AddRow(keys, value);
  refresh_oracle.Canonicalize();

  ViewBuilder reference_builder(schema_);
  reference_builder.set_batch_config(BatchConfig{1});
  DiskModel reference_disk;
  auto reference_table = reference_builder.Build(*view_, target,
                                                 reference_disk);
  MaterializedView reference_view(schema_, target, reference_table.get());
  auto reference_refreshed =
      reference_builder.Refresh(reference_view, *view_, reference_disk);

  ViewBuilder builder(schema_);  // default batch size
  DiskModel disk;
  auto table = builder.Build(*view_, target, disk);
  EXPECT_TRUE(BitIdentical(TableAsResult(*table, target), built_oracle))
      << "Build diverged from the single-query oracle";
  ExpectTablesBitIdentical(*table, *reference_table, "Build");
  MaterializedView built_view(schema_, target, table.get());
  auto refreshed = builder.Refresh(built_view, *view_, disk);
  EXPECT_TRUE(BitIdentical(TableAsResult(*refreshed, target), refresh_oracle))
      << "Refresh diverged from the replayed fold";
  ExpectTablesBitIdentical(*refreshed, *reference_refreshed, "Refresh");
  EXPECT_EQ(disk.stats(), reference_disk.stats());
}

TEST(VectorizedEngineTest, BatchedEngineReproducesSingleQueryWorkload) {
  // End-to-end over the paper workload: the engine's default batches must
  // reproduce every query's single-query star join over its planned view
  // bit-for-bit, and charge exactly the pages of the batch_rows = 1 engine,
  // at 1 and 4 threads.
  Engine engine(StarSchema::PaperTestSchema());
  PaperWorkload::Setup(engine, /*rows=*/30'000, /*seed=*/7);
  std::vector<DimensionalQuery> queries =
      PaperWorkload::MakeQueries(engine, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  const GlobalPlan plan =
      engine.Optimize(queries, OptimizerKind::kGlobalGreedy);

  std::map<int, QueryResult> oracle;
  {
    DiskModel scratch;
    for (const ClassPlan& cls : plan.classes) {
      for (const LocalPlan& member : cls.members) {
        oracle.emplace(member.query->id(),
                       member.method == JoinMethod::kIndexProbe
                           ? IndexStarJoin(engine.schema(), *member.query,
                                           *cls.base, scratch)
                           : HashStarJoin(engine.schema(), *member.query,
                                          *cls.base, scratch));
      }
    }
  }

  engine.set_batch_rows(1);
  engine.ConsumeIoStats();
  for (auto& r : engine.Execute(plan)) {
    ASSERT_TRUE(r.ok()) << r.status.ToString();
    EXPECT_TRUE(BitIdentical(r.result, oracle.at(r.query->id())))
        << "Q" << r.query->id() << " at batch_rows = 1";
  }
  const IoStats reference_stats = engine.ConsumeIoStats();

  engine.set_batch_config(BatchConfig());
  for (const size_t threads : {1u, 4u}) {
    engine.set_parallelism(threads);
    for (auto& r : engine.Execute(plan)) {
      ASSERT_TRUE(r.ok()) << r.status.ToString();
      EXPECT_TRUE(BitIdentical(r.result, oracle.at(r.query->id())))
          << "Q" << r.query->id() << " batched at parallelism " << threads;
    }
    EXPECT_EQ(engine.ConsumeIoStats(), reference_stats)
        << "batched execution at parallelism " << threads
        << " charged different I/O — the 1998 modeled time would change";
  }
}

}  // namespace
}  // namespace starshare
