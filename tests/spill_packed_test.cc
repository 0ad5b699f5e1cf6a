// Direct SpillFile coverage for the packed run layout (exec/spill.h): Merge
// must emit every record in (key, run index, in-run position) order — the
// order the bit-identity contract relies on — at any read budget, runs must
// bit-pack their keys to the run's key-domain width, the streaming
// word-window merge must survive chunk boundaries that split words, and the
// per-section CRCs must catch in-flight bit flips.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/fault_injector.h"
#include "exec/spill.h"

namespace starshare {
namespace {

using Emitted = std::vector<std::pair<uint64_t, std::vector<double>>>;

class SpillPackedTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("starshare_spill_packed_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    FaultInjector::Instance().Disable();
    std::filesystem::remove_all(dir_);
  }

  SpillConfig Config() const {
    SpillConfig config;
    config.scratch_dir = dir_.string();
    return config;
  }

  // The records of AppendRuns' run `run`, position `i`.
  static uint64_t RunKey(uint64_t run, uint64_t i) { return run * 3 + i * 5; }
  static double RunValue(uint64_t run, uint64_t i, size_t d) {
    return static_cast<double>(run * 10'000 + i) + d * 0.5;
  }
  static constexpr uint64_t kRuns = 3;
  static constexpr uint64_t kRunRows = 257;  // never a whole word count

  // Three sorted runs with interleaved, duplicated key ranges so the merge
  // heap has to alternate runs and respect arrival order on equal keys.
  static void AppendRuns(SpillFile& file, size_t doubles) {
    for (uint64_t run = 0; run < kRuns; ++run) {
      std::vector<uint64_t> keys;
      std::vector<double> values;
      for (uint64_t i = 0; i < kRunRows; ++i) {
        keys.push_back(RunKey(run, i));  // sorted, overlapping across runs
        for (size_t d = 0; d < doubles; ++d) {
          values.push_back(RunValue(run, i, d));
        }
      }
      ASSERT_TRUE(file.AppendRun(keys.data(), values.data(), keys.size()).ok());
    }
  }

  // What Merge must emit for AppendRuns: every record, sorted by
  // (key, run index, in-run position) — per key, arrival order.
  static Emitted ExpectedMerge(size_t doubles) {
    std::vector<std::tuple<uint64_t, uint64_t, uint64_t>> order;
    for (uint64_t run = 0; run < kRuns; ++run) {
      for (uint64_t i = 0; i < kRunRows; ++i) {
        order.emplace_back(RunKey(run, i), run, i);
      }
    }
    std::sort(order.begin(), order.end());
    Emitted expected;
    for (const auto& [key, run, i] : order) {
      std::vector<double> values;
      for (size_t d = 0; d < doubles; ++d) {
        values.push_back(RunValue(run, i, d));
      }
      expected.emplace_back(key, std::move(values));
    }
    return expected;
  }

  static Emitted MergeAll(SpillFile& file, uint64_t budget) {
    Emitted out;
    const size_t doubles = file.doubles_per_record();
    SS_CHECK(file.Merge(budget, [&](uint64_t key, const double* v) {
      out.emplace_back(key, std::vector<double>(v, v + doubles));
    }).ok());
    return out;
  }

  std::filesystem::path dir_;
};

TEST_F(SpillPackedTest, MergeEmitsKeyRunPositionOrder) {
  const Emitted expected = ExpectedMerge(2);
  ASSERT_EQ(expected.size(), kRuns * kRunRows);
  for (const uint64_t budget : {uint64_t{1}, uint64_t{512}, uint64_t{1} << 20}) {
    SpillFile file(Config(), 1, 2);
    AppendRuns(file, 2);
    EXPECT_EQ(file.spilled_rows(), kRuns * kRunRows);
    // Each run's 257 keys span 256 * 5 = 1280, so they pack at 11 bits. A
    // run is then the 20-byte header, 45 key words, the key CRC, 257 x 2
    // doubles and the value CRC.
    EXPECT_EQ(file.spilled_bytes(),
              kRuns * (8 + 4 + 8 + 45 * 8 + 4 + kRunRows * 16 + 4));

    const Emitted got = MergeAll(file, budget);
    ASSERT_EQ(got.size(), expected.size()) << "budget " << budget;
    EXPECT_EQ(got, expected) << "merge order diverged at budget " << budget;
  }
}

TEST_F(SpillPackedTest, WideKeysNeedSixtyFourBits) {
  // A run whose keys span nearly the whole u64 domain: bits = 64, the
  // widest the packed layout supports (mask must not shift out).
  SpillFile file(Config(), 2, 1);
  const std::vector<uint64_t> keys = {0, 1, uint64_t{1} << 40,
                                      (uint64_t{1} << 63) + 9};
  const std::vector<double> values = {1.0, 2.0, 3.0, 4.0};
  ASSERT_TRUE(file.AppendRun(keys.data(), values.data(), keys.size()).ok());
  const Emitted got = MergeAll(file, 64);
  ASSERT_EQ(got.size(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(got[i].first, keys[i]);
    EXPECT_EQ(got[i].second[0], values[i]);
  }
}

TEST_F(SpillPackedTest, PackedReadBitFlipFailsWithResourceExhausted) {
  SpillFile file(Config(), 7, 1);
  std::vector<uint64_t> keys;
  std::vector<double> values;
  for (uint64_t i = 0; i < 2'000; ++i) {
    keys.push_back(i * 3);
    values.push_back(static_cast<double>(i));
  }
  ASSERT_TRUE(file.AppendRun(keys.data(), values.data(), keys.size()).ok());

  FaultInjector::Instance().Enable(23);
  FaultSpec spec;
  spec.kind = FaultKind::kBitFlip;
  spec.key = 7;
  spec.countdown = 2;  // flip during a mid-run refill
  FaultInjector::Instance().Arm("spill.read", spec);

  const Status s = file.Merge(256, [](uint64_t, const double*) {});
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted) << s.ToString();
}

}  // namespace
}  // namespace starshare
