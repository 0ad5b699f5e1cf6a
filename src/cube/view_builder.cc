#include "cube/view_builder.h"

#include <algorithm>
#include <vector>

#include "exec/dim_translator.h"
#include "exec/flat_hash.h"
#include "exec/key_packer.h"
#include "exec/operators/scan_source.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/morsel.h"
#include "parallel/morsel_pipeline.h"
#include "parallel/parallel_context.h"
#include "plan/lowering.h"

namespace starshare {
namespace {

// splitmix64 finalizer: the deterministic "heap order" permutation key.
uint64_t HashKey(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Pulls one ScanSourceOp over the rows [begin, end) of `table` on `disk`,
// executing the given Scan node: rows and batches land on the node, and
// `per_batch(b, e)` sees exactly the fixed-size batch spans the §3 pipeline
// driver sees (page charges and tuple counts are identical to the old
// page-at-a-time build scans by ScanSourceOp's contract).
template <typename PerBatch>
void DriveScan(const Table& table, DiskModel& disk, uint64_t begin,
               uint64_t end, uint64_t batch_rows, NodeExec& scan,
               PerBatch&& per_batch) {
  scan.AddRows(end - begin);
  ScanSourceOp op(table, disk, begin, end, batch_rows);
  ClassBatch batch;
  op.Open();
  while (op.NextBatch(batch)) {
    scan.AddBatches(1);
    per_batch(batch.begin, batch.end);
  }
  op.Close();
}

}  // namespace

// Aggregates packed group keys -> one SUM per measure column (views must
// carry every measure so any measure query is answerable from them).
class ViewBuilder::MultiAggregator {
 public:
  MultiAggregator(const StarSchema& schema, const GroupBySpec& target,
                  size_t num_measures, uint64_t expected_cells)
      : packer_(schema, target),
        slots_(expected_cells),
        sums_(num_measures) {}

  const KeyPacker& packer() const { return packer_; }
  size_t num_cells() const { return cell_keys_.size(); }
  size_t num_measures() const { return sums_.size(); }

  // Adds one input row: `values[m]` is the row's m-th measure.
  void Add(uint64_t key, const double* values) {
    uint32_t& slot = slots_.FindOrInsert(key);
    if (slot == 0) {
      cell_keys_.push_back(key);
      for (auto& column : sums_) column.push_back(0);
      slot = static_cast<uint32_t>(cell_keys_.size());
    }
    const size_t cell = slot - 1;
    for (size_t m = 0; m < sums_.size(); ++m) {
      sums_[m][cell] += values[m];
    }
  }

  // Batch form: equivalent to Add(keys[i], row base_row + i's measures) for
  // i in [0, n) in order — row-outer, measure-inner, so every per-cell sum
  // folds in exactly the serial order — but reading the measure columns
  // directly instead of staging each row's values.
  void AddBatch(const uint64_t* keys, size_t n,
                const std::vector<const std::vector<double>*>& measure_cols,
                uint64_t base_row) {
    for (size_t i = 0; i < n; ++i) {
      uint32_t& slot = slots_.FindOrInsert(keys[i]);
      if (slot == 0) {
        cell_keys_.push_back(keys[i]);
        for (auto& column : sums_) column.push_back(0);
        slot = static_cast<uint32_t>(cell_keys_.size());
      }
      const size_t cell = slot - 1;
      const uint64_t row = base_row + i;
      for (size_t m = 0; m < sums_.size(); ++m) {
        sums_[m][cell] += (*measure_cols[m])[row];
      }
    }
  }

  uint64_t cell_key(size_t cell) const { return cell_keys_[cell]; }
  double cell_sum(size_t measure, size_t cell) const {
    return sums_[measure][cell];
  }

  // Bytes held by the aggregation state (hash slots + key column + sum
  // columns) — the quantity a memory grant caps.
  uint64_t MemoryBytes() const {
    uint64_t bytes = slots_.MemoryBytes() + cell_keys_.size() * 8;
    for (const auto& column : sums_) bytes += column.size() * 8;
    return bytes;
  }

 private:
  KeyPacker packer_;
  FlatHashMap<uint32_t> slots_;  // packed key -> cell index + 1
  std::vector<uint64_t> cell_keys_;
  std::vector<std::vector<double>> sums_;  // [measure][cell]
};

// Per-target plumbing for one pass over a source view. Key translation goes
// through the same dense arrays (exec/dim_translator.h) as query execution.
struct ViewBuilder::TargetState {
  std::unique_ptr<MultiAggregator> agg;
  DimTranslator translator;
  std::vector<const std::vector<double>*> measure_cols;
  std::vector<double> values;

  // Budget state. An unbounded grant (the default) keeps every fold on the
  // direct in-memory path below, byte-for-byte the pre-budget behaviour.
  // A bounded grant stages (key, measures...) records instead and spills
  // sorted runs past the cap; FinishFolds() replays everything into `agg`
  // in per-cell arrival order, so the emitted table is bit-identical.
  // `degraded` is set when a spill write fails: the target abandons
  // spilling and completes in memory (already-written runs still merge at
  // finish).
  MemoryGrant grant;
  SpillConfig spill_config;
  std::unique_ptr<SpillFile> spill;
  std::vector<uint64_t> staged_keys;
  std::vector<double> staged_values;  // measure-cols per record, interleaved
  uint64_t staged_peak_bytes = 0;
  uint64_t spill_runs = 0;   // captured by FinishFolds for the plan node
  uint64_t spill_bytes = 0;
  bool degraded = false;

  bool budgeted() const { return !grant.unbounded && !degraded; }

  uint64_t StagedBytes() const {
    return (staged_keys.size() + staged_values.size()) * 8;
  }

  // One fold, either path. `vals` holds this row's measures.
  void Fold(uint64_t key, const double* vals) {
    if (!budgeted()) {
      agg->Add(key, vals);
      return;
    }
    staged_keys.push_back(key);
    staged_values.insert(staged_values.end(), vals,
                         vals + measure_cols.size());
    staged_peak_bytes = std::max(staged_peak_bytes, StagedBytes());
    if (grant.WouldExceed(StagedBytes())) FlushRun();
  }

  // Batch fold of rows [base_row, base_row + n) whose packed keys are
  // `keys`. Unbudgeted this is MultiAggregator::AddBatch; budgeted it
  // stages row-by-row (same arrival order either way).
  void FoldBatch(const uint64_t* keys, size_t n, uint64_t base_row) {
    if (!budgeted()) {
      agg->AddBatch(keys, n, measure_cols, base_row);
      return;
    }
    for (size_t i = 0; i < n; ++i) {
      const uint64_t row = base_row + i;
      for (size_t m = 0; m < measure_cols.size(); ++m) {
        values[m] = (*measure_cols[m])[row];
      }
      Fold(keys[i], values.data());
    }
  }

  // Batch form over the contiguous rows [begin, end), with caller-owned key
  // scratch. Fold order per cell matches the serial loop exactly.
  void AccumulateBatch(uint64_t begin, uint64_t end,
                       std::vector<uint64_t>& keys) {
    const size_t n = static_cast<size_t>(end - begin);
    keys.resize(n);
    translator.PackRange(begin, n, keys.data());
    FoldBatch(keys.data(), n, begin);
  }

  // Sorts the staged records by key (stable, preserving arrival order
  // within a key) and appends them as one run. A write failure flips the
  // target to `degraded`: the staged rows fold straight into the
  // aggregator and all later folds bypass staging.
  void FlushRun() {
    if (staged_keys.empty()) return;
    const size_t m = measure_cols.size();
    if (spill == nullptr) {
      spill = std::make_unique<SpillFile>(spill_config, /*query_id=*/-1, m);
    }
    std::vector<uint32_t> perm(staged_keys.size());
    for (size_t i = 0; i < perm.size(); ++i) perm[i] = static_cast<uint32_t>(i);
    std::stable_sort(perm.begin(), perm.end(),
                     [this](uint32_t a, uint32_t b) {
                       return staged_keys[a] < staged_keys[b];
                     });
    std::vector<uint64_t> sorted_keys(staged_keys.size());
    std::vector<double> sorted_values(staged_values.size());
    for (size_t i = 0; i < perm.size(); ++i) {
      sorted_keys[i] = staged_keys[perm[i]];
      for (size_t j = 0; j < m; ++j) {
        sorted_values[i * m + j] = staged_values[perm[i] * m + j];
      }
    }
    const Status written = spill->AppendRun(
        sorted_keys.data(), sorted_values.data(), sorted_keys.size());
    if (!written.ok()) {
      degraded = true;
      for (size_t i = 0; i < staged_keys.size(); ++i) {
        agg->Add(staged_keys[i], staged_values.data() + i * m);
      }
    }
    staged_keys.clear();
    staged_keys.shrink_to_fit();
    staged_values.clear();
    staged_values.shrink_to_fit();
  }

  // Replays every staged/spilled record into the aggregator. Must run
  // before Emit. With runs on disk the ordered merge feeds each cell's
  // folds in arrival order; without, the staged buffer already is arrival
  // order. A merge read failure (torn scratch file) is fatal — the rows
  // exist nowhere else.
  void FinishFolds() {
    if (spill == nullptr || spill->empty()) {
      const size_t m = measure_cols.size();
      for (size_t i = 0; i < staged_keys.size(); ++i) {
        agg->Add(staged_keys[i], staged_values.data() + i * m);
      }
      staged_keys.clear();
      staged_values.clear();
      return;
    }
    if (!degraded) FlushRun();  // tail (may itself degrade; runs still merge)
    spill_runs = spill->num_runs();
    spill_bytes = spill->spilled_bytes();
    const Status merged = spill->Merge(
        grant.cap_bytes, [this](uint64_t key, const double* vals) {
          agg->Add(key, vals);
        });
    SS_CHECK_MSG(merged.ok(), "view build spill merge failed: %s",
                 merged.ToString().c_str());
    spill.reset();
  }
};

ViewBuilder::TargetState ViewBuilder::MakeTargetState(
    const MaterializedView& source, const GroupBySpec& target) const {
  TargetState state;
  const size_t num_measures = source.table().num_measures();
  state.agg = std::make_unique<MultiAggregator>(
      schema_, target, num_measures,
      std::min<uint64_t>(target.MaxCells(schema_),
                         source.table().num_rows()));
  state.translator =
      DimTranslator(schema_, target, source, state.agg->packer());
  for (size_t m = 0; m < num_measures; ++m) {
    state.measure_cols.push_back(&source.table().measure_column(m));
  }
  state.values.resize(num_measures);
  return state;
}

void ViewBuilder::RecordBuildMem(const std::vector<TargetState>& states,
                                 NodeExec& agg) {
  MemStats mem;
  uint64_t runs = 0;
  uint64_t bytes = 0;
  for (const TargetState& state : states) {
    mem.hash_bytes += state.agg->MemoryBytes() + state.staged_peak_bytes;
    runs += state.spill_runs;
    bytes += state.spill_bytes;
  }
  agg.RecordMem(mem);
  if (runs > 0) {
    agg.AddNodeOnlyCounter("spill_runs", runs);
    agg.AddNodeOnlyCounter("spill_bytes", bytes);
  }
}

void ViewBuilder::GrantBudget(TargetState& state, uint64_t consumers) const {
  if (budget_ == nullptr || !budget_->bounded()) return;
  // View builds have no query id; -1 keys their grant/spill fault sites.
  Result<MemoryGrant> grant = budget_->Grant(/*query_id=*/-1, consumers);
  if (!grant.ok()) return;  // denied: this target completes in memory
  state.grant = grant.value();
  state.spill_config = spill_;
}

std::unique_ptr<Table> ViewBuilder::Emit(const MultiAggregator& agg,
                                         const GroupBySpec& target,
                                         const Table& source_table,
                                         DiskModel& disk,
                                         const std::string& name,
                                         bool clustered) const {
  obs::ScopedSpan span("view.emit", target.ToString(schema_));
  span.AddRows(agg.num_cells());
  // Deterministic emission order: lexicographic by key when clustered,
  // otherwise a pseudo-random permutation of the keys (hash order).
  std::vector<std::pair<uint64_t, uint32_t>> order;  // (sort key, cell)
  order.reserve(agg.num_cells());
  for (size_t cell = 0; cell < agg.num_cells(); ++cell) {
    const uint64_t key = agg.cell_key(cell);
    order.emplace_back(clustered ? key : HashKey(key),
                       static_cast<uint32_t>(cell));
  }
  std::sort(order.begin(), order.end(),
            [&agg](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first < b.first;
              return agg.cell_key(a.second) < agg.cell_key(b.second);
            });

  const auto retained = target.RetainedDims(schema_);
  std::vector<std::string> key_names;
  key_names.reserve(retained.size());
  for (size_t d : retained) {
    key_names.push_back(schema_.dim(d).LevelName(target.level(d)));
  }
  std::vector<std::string> measure_names;
  for (size_t m = 0; m < source_table.num_measures(); ++m) {
    measure_names.push_back(source_table.measure_name(m));
  }
  auto table = std::make_unique<Table>(
      name.empty() ? target.ToString(schema_) : name, key_names,
      measure_names);
  table->Reserve(agg.num_cells());
  std::vector<double> values(agg.num_measures());
  for (const auto& [_, cell] : order) {
    const std::vector<int32_t> keys = agg.packer().Unpack(agg.cell_key(cell));
    for (size_t m = 0; m < values.size(); ++m) {
      values[m] = agg.cell_sum(m, cell);
    }
    table->AppendRowM(keys.data(), values.data());
  }
  // Pack before charging the write: the pages written are the pages later
  // scans of this view will read, so both sides price the same layout.
  if (compressed_pages_) table->SetCompressed(true);
  disk.WritePages(table->num_pages());
  return table;
}

std::unique_ptr<Table> ViewBuilder::Build(const MaterializedView& source,
                                          const GroupBySpec& target,
                                          DiskModel& disk,
                                          const std::string& name,
                                          bool clustered) const {
  SS_CHECK_MSG(source.spec().CanAnswer(target),
               "view %s cannot materialize %s", source.name().c_str(),
               target.ToString(schema_).c_str());
  static obs::Counter& builds = obs::Metrics().counter("view.builds");
  builds.Add();
  obs::ScopedSpan span("view.build", target.ToString(schema_));
  span.AddRows(source.table().num_rows());

  // A build executes the lowered Aggregate <- Scan tree, like every other
  // path in the system: the scan streams ScanSourceOp batches into the
  // target's aggregator, and the physical nodes record what ran.
  PhysicalPlan phys;
  const LoweredViewBuild lowered =
      LowerViewBuild(phys, target.ToString(schema_), /*num_scans=*/1);
  TargetState state = MakeTargetState(source, target);
  GrantBudget(state, /*consumers=*/1);
  NodeExec agg(phys, lowered.aggregate, disk);
  {
    NodeExec scan(phys, lowered.scans[0], disk);
    std::vector<uint64_t> keys;
    DriveScan(source.table(), disk, 0, source.table().num_rows(),
              batch_.EffectiveBatchRows(), scan,
              [&](uint64_t b, uint64_t e) {
                state.AccumulateBatch(b, e, keys);
              });
  }
  state.FinishFolds();
  std::unique_ptr<Table> table =
      Emit(*state.agg, target, source.table(), disk, name, clustered);
  agg.AddRows(table->num_rows());
  MemStats mem;
  mem.hash_bytes = state.agg->MemoryBytes() + state.staged_peak_bytes;
  agg.RecordMem(mem);
  if (state.spill_runs > 0) {
    agg.AddNodeOnlyCounter("spill_runs", state.spill_runs);
    agg.AddNodeOnlyCounter("spill_bytes", state.spill_bytes);
  }
  return table;
}

std::unique_ptr<Table> ViewBuilder::Refresh(const MaterializedView& view,
                                            const MaterializedView& delta,
                                            DiskModel& disk) const {
  SS_CHECK_MSG(delta.spec().CanAnswer(view.spec()),
               "delta %s cannot refresh view %s", delta.name().c_str(),
               view.name().c_str());
  SS_CHECK_MSG(delta.table().num_measures() == view.table().num_measures(),
               "delta and view measure counts differ");
  static obs::Counter& refreshes = obs::Metrics().counter("view.refreshes");
  refreshes.Add();
  obs::ScopedSpan span("view.refresh", view.spec().ToString(schema_));
  span.AddRows(view.table().num_rows() + delta.table().num_rows());

  // Fold in the existing cells (keys are already at the view's levels, in
  // column order) using an identity-mapped state over the view itself...
  // then the delta, mapped up to the view's levels, into the SAME
  // aggregator. The lowered tree is one Aggregate over two Scans.
  PhysicalPlan phys;
  const LoweredViewBuild lowered =
      LowerViewBuild(phys, view.spec().ToString(schema_), /*num_scans=*/2);
  TargetState fold = MakeTargetState(view, view.spec());
  TargetState delta_state = MakeTargetState(delta, view.spec());
  NodeExec agg(phys, lowered.aggregate, disk);
  const auto scan_into = [&](const MaterializedView& src, TargetState& state,
                             size_t scan_slot) {
    NodeExec scan(phys, lowered.scans[scan_slot], disk);
    std::vector<uint64_t> keys;
    DriveScan(src.table(), disk, 0, src.table().num_rows(),
              batch_.EffectiveBatchRows(), scan,
              [&](uint64_t b, uint64_t e) {
                state.AccumulateBatch(b, e, keys);
              });
  };
  scan_into(view, fold, 0);
  delta_state.agg = std::move(fold.agg);
  scan_into(delta, delta_state, 1);

  std::unique_ptr<Table> table = Emit(*delta_state.agg, view.spec(),
                                      view.table(), disk, view.name(),
                                      view.clustered());
  agg.AddRows(table->num_rows());
  return table;
}

std::vector<std::unique_ptr<Table>> ViewBuilder::BuildMany(
    const MaterializedView& source, const std::vector<GroupBySpec>& targets,
    DiskModel& disk, bool clustered) const {
  static obs::Counter& builds = obs::Metrics().counter("view.builds");
  builds.Add(targets.size());
  obs::ScopedSpan span("view.build_many");
  span.AddRows(source.table().num_rows());
  span.AddCounter("targets", targets.size());

  std::vector<TargetState> states;
  states.reserve(targets.size());
  for (const GroupBySpec& target : targets) {
    SS_CHECK_MSG(source.spec().CanAnswer(target),
                 "view %s cannot materialize %s", source.name().c_str(),
                 target.ToString(schema_).c_str());
    states.push_back(MakeTargetState(source, target));
  }
  for (TargetState& state : states) GrantBudget(state, states.size());

  // One shared scan feeds every target's aggregation. Targets aggregate
  // independently, so the target-outer batch order folds each aggregator
  // in ascending row order.
  PhysicalPlan phys;
  const LoweredViewBuild lowered =
      LowerViewBuild(phys, source.name(), /*num_scans=*/1);
  std::vector<std::unique_ptr<Table>> tables;
  tables.reserve(targets.size());
  {
    NodeExec agg(phys, lowered.aggregate, disk);
    {
      NodeExec scan(phys, lowered.scans[0], disk);
      std::vector<uint64_t> keys;
      DriveScan(source.table(), disk, 0, source.table().num_rows(),
                batch_.EffectiveBatchRows(), scan,
                [&](uint64_t b, uint64_t e) {
                  for (TargetState& state : states) {
                    state.AccumulateBatch(b, e, keys);
                  }
                });
    }
    uint64_t cells = 0;
    for (size_t i = 0; i < targets.size(); ++i) {
      states[i].FinishFolds();
      tables.push_back(Emit(*states[i].agg, targets[i], source.table(), disk,
                            "", clustered));
      cells += tables.back()->num_rows();
    }
    agg.AddRows(cells);
    RecordBuildMem(states, agg);
  }
  return tables;
}

std::vector<std::unique_ptr<Table>> ViewBuilder::BuildManyParallel(
    const MaterializedView& source, const std::vector<GroupBySpec>& targets,
    DiskModel& disk, const ParallelPolicy& policy, bool clustered) const {
  if (!policy.engaged()) return BuildMany(source, targets, disk, clustered);

  // Same span site as BuildMany; closes after MergeIntoParent so the
  // merged worker I/O lands in its delta (see exec/operators/).
  static obs::Counter& builds = obs::Metrics().counter("view.builds");
  builds.Add(targets.size());
  obs::ScopedSpan span("view.build_many");
  span.AddRows(source.table().num_rows());
  span.AddCounter("targets", targets.size());

  std::vector<TargetState> states;
  states.reserve(targets.size());
  for (const GroupBySpec& target : targets) {
    SS_CHECK_MSG(source.spec().CanAnswer(target),
                 "view %s cannot materialize %s", source.name().c_str(),
                 target.ToString(schema_).c_str());
    states.push_back(MakeTargetState(source, target));
  }
  for (TargetState& state : states) GrantBudget(state, states.size());

  const Table& table = source.table();
  const size_t workers =
      std::min(policy.parallelism, policy.pool->num_threads());
  const uint64_t morsel_rows =
      policy.morsel_rows > 0
          ? policy.morsel_rows
          : MorselDispatcher::DefaultMorselRows(
                table.num_rows(), table.rows_per_page(), workers);
  MorselDispatcher dispatcher(table.num_rows(), morsel_rows,
                              /*window=*/4 * workers);
  ParallelContext ctx(disk, workers);

  // The same Aggregate <- Scan tree as BuildMany; parallelism is only a
  // driver property. Every row feeds every target, so a morsel's buffer is
  // one packed-key column per target; measure values are re-read by the
  // consumer (cheap, and already charged by the worker's page scan).
  PhysicalPlan phys;
  const LoweredViewBuild lowered =
      LowerViewBuild(phys, source.name(), /*num_scans=*/1);
  std::vector<std::unique_ptr<Table>> tables;
  tables.reserve(targets.size());
  {
    NodeExec agg(phys, lowered.aggregate, disk);
    {
      // Open across the whole pipeline: MergeIntoParent runs before this
      // node closes, so the merged worker I/O lands in its delta.
      NodeExec scan(phys, lowered.scans[0], disk);
      scan.AddRows(table.num_rows());
      struct KeyBuffer {
        std::vector<std::vector<uint64_t>> keys;
      };
      RunMorselPipeline<KeyBuffer>(
          policy.pool, workers, dispatcher, ctx,
          [&](const Morsel& morsel, DiskModel& wdisk, KeyBuffer& buffer) {
            buffer.keys.resize(states.size());
            for (std::vector<uint64_t>& keys : buffer.keys) {
              keys.clear();
              keys.reserve(morsel.num_rows());
            }
            // Per-morsel ScanSourceOp on the worker disk: identical page
            // charges and batch spans as the serial chain over this slice.
            ScanSourceOp op(table, wdisk, morsel.begin, morsel.end,
                            policy.batch.EffectiveBatchRows());
            ClassBatch batch;
            op.Open();
            while (op.NextBatch(batch)) {
              // Batches arrive adjacent and ascending, so packing each span
              // onto the tail keeps buffer.keys[t][i] the key of row
              // morsel.begin + i.
              const size_t n = static_cast<size_t>(batch.end - batch.begin);
              for (size_t t = 0; t < states.size(); ++t) {
                std::vector<uint64_t>& keys = buffer.keys[t];
                const size_t base = keys.size();
                keys.resize(base + n);
                states[t].translator.PackRange(batch.begin, n,
                                               keys.data() + base);
              }
            }
            op.Close();
          },
          [&](const Morsel& morsel, const KeyBuffer& buffer) {
            scan.AddBatches(1);
            // Per-target batch fold: targets are independent, and each
            // target's stream is row-ascending, so this replays BuildMany's
            // per-cell accumulation order exactly.
            for (size_t t = 0; t < states.size(); ++t) {
              states[t].FoldBatch(buffer.keys[t].data(),
                                  buffer.keys[t].size(), morsel.begin);
            }
          });
      ctx.MergeIntoParent();
    }
    uint64_t cells = 0;
    for (size_t i = 0; i < targets.size(); ++i) {
      states[i].FinishFolds();
      tables.push_back(Emit(*states[i].agg, targets[i], source.table(), disk,
                            "", clustered));
      cells += tables.back()->num_rows();
    }
    agg.AddRows(cells);
    RecordBuildMem(states, agg);
  }
  return tables;
}

}  // namespace starshare
