// Spill files for budgeted aggregation (exec/memory_budget.h): when a
// consumer's staged raw records exceed its grant, it stable-sorts them by
// packed key and appends them as one checksummed run; Finish() merges the
// runs back with bounded memory.
//
// Bit-identity contract. Floating-point aggregation folds are order
// sensitive, so a spilled execution must replay each group's values in the
// exact order the unbudgeted path would have folded them. Runs are staged
// in arrival order and sorted *stably* by key, so within a run equal keys
// keep arrival order; runs are flushed in arrival order, so across runs
// every record of run i arrived before any record of run j > i. The merge
// pops records in (key, run index, position-in-run) order — for each key,
// precisely arrival order — making the merged fold bit-identical to the
// in-memory fold at any thread count, batch size and budget.
//
// On-disk format (raw little-endian sections, each closed by a CRC32, the
// format-v3/v4 conventions from storage/table_io.h), on either page layout:
//
//   run := rows u64 | bits u32 | ref u64
//          | ceil(rows*bits/64) x u64 key words | key CRC32 u32
//          | rows x (m x double) | value CRC32 u32
//
// Keys in a run are sorted ascending, so ref is the first key and
// bits = ceil(log2(last - first + 1)) — the same frame-of-reference
// bit-packing as storage/packed_column.h, applied to u64 group keys. Spill
// bytes shrink with the key-domain width exactly like pages do. Spill files
// never outlive the process that wrote them, so there is one format only.
//
// Runs are appended back-to-back in one file per consumer, created lazily
// under the scratch directory with a unique per-query name and removed by
// the destructor on success and error paths alike.
//
// Failure model: every spill failure — a failed write, a failed or
// short read, a CRC mismatch — surfaces as StatusCode::kResourceExhausted:
// the member's memory pressure could not be relieved, and the engine's
// fallback ladder degrades that member alone. Fault sites "spill.write" and
// "spill.read" (keyed by query id) force each path; a kBitFlip read fault
// corrupts the buffer *before* checksumming, exactly as at-rest damage
// would. Merge emits records before its run's final CRC is validated; a
// late mismatch still fails the member, whose partial fold is discarded.

#ifndef STARSHARE_EXEC_SPILL_H_
#define STARSHARE_EXEC_SPILL_H_

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "common/status.h"

namespace starshare {

// Where spill files live (empty scratch_dir resolves to DefaultScratchDir()
// at SpillFile construction).
struct SpillConfig {
  std::string scratch_dir;
};

// $TMPDIR when set, else /tmp.
std::string DefaultScratchDir();

class SpillFile {
 public:
  // One spill file for one consumer: records carry one packed u64 key and
  // `doubles_per_record` measure values. Nothing touches the filesystem
  // until the first AppendRun.
  SpillFile(const SpillConfig& config, int query_id,
            size_t doubles_per_record);
  ~SpillFile();

  SpillFile(const SpillFile&) = delete;
  SpillFile& operator=(const SpillFile&) = delete;

  // Appends one run of `rows` records already stable-sorted by key.
  // `values` is row-major, doubles_per_record() per record. Fault site
  // "spill.write" (keyed by the query id).
  Status AppendRun(const uint64_t* keys, const double* values, uint64_t rows);

  // K-way merges every run, calling emit(key, values) once per spilled
  // record in (key, run index, in-run position) order. Read buffers across
  // all runs are bounded by chunk_budget_bytes (floored at one record per
  // run). Each run's CRC(s) are verified as its last chunk drains. Fault
  // site "spill.read" (keyed by the query id).
  Status Merge(uint64_t chunk_budget_bytes,
               const std::function<void(uint64_t, const double*)>& emit);

  size_t num_runs() const { return runs_.size(); }
  uint64_t spilled_rows() const { return spilled_rows_; }
  uint64_t spilled_bytes() const { return spilled_bytes_; }
  bool empty() const { return runs_.empty(); }
  size_t doubles_per_record() const { return doubles_; }
  const std::string& path() const { return path_; }

 private:
  struct RunInfo {
    uint64_t payload_offset = 0;  // first payload byte (after run header)
    uint64_t rows = 0;
    // Per-run key geometry (also persisted in the run header for file
    // self-containedness).
    uint32_t key_bits = 0;
    uint64_t key_ref = 0;
  };

  // Bytes of one record's values section.
  size_t value_size() const { return 8 * doubles_; }
  // Packed key words of a whole run.
  static uint64_t KeyWords(uint64_t rows, uint32_t bits) {
    return (rows * bits + 63) / 64;
  }

  Status OpenAndSeek(uint64_t offset, const char* what);

  int query_id_;
  size_t doubles_;
  std::string path_;
  FILE* file_ = nullptr;
  uint64_t end_offset_ = 0;  // where the next run starts
  std::vector<RunInfo> runs_;
  uint64_t spilled_rows_ = 0;
  uint64_t spilled_bytes_ = 0;
};

}  // namespace starshare

#endif  // STARSHARE_EXEC_SPILL_H_
