// Golden-file regression tests: the checked-in canonical sweep spec
// (tests/golden/tiny_sweep.json) must reproduce the checked-in CSV
// (tests/golden/tiny_sweep.csv) byte-for-byte. Exact-mode cycles and
// data-access counts are integers fully determined by the timing model, so
// ANY drift in kernels, timing, memory hierarchy or report formatting
// fails tier-1 loudly here.
//
// To regenerate after an intentional model change:
//   build/tools/imac_run sweep --spec tests/golden/tiny_sweep.json
//     --out tests/golden/tiny_sweep.csv     (one command line)
// and explain the cycle deltas in the commit message.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "core/result_store.h"
#include "core/rollup.h"
#include "core/sweep.h"
#include "locale_test_util.h"

#ifndef INDEXMAC_GOLDEN_DIR
#error "tests/CMakeLists.txt must define INDEXMAC_GOLDEN_DIR"
#endif

namespace indexmac::core {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  IMAC_CHECK(file.good(), "cannot open golden file " + path);
  std::stringstream buf;
  buf << file.rdbuf();
  return buf.str();
}

std::string golden_path(const char* name) {
  return std::string(INDEXMAC_GOLDEN_DIR) + "/" + name;
}

TEST(SweepGolden, TinySweepReproducesCheckedInCsvByteForByte) {
  const SweepSpec spec = parse_sweep_spec_file(golden_path("tiny_sweep.json"));
  const std::string expected = read_file(golden_path("tiny_sweep.csv"));

  // Points sharing operands share one live SpmmProblem; whether siblings
  // overlap depends on the pool width, and the bytes must not.
  for (const unsigned threads : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const SweepReport report = run_sweep(spec, threads);
    const std::string actual = report_to_csv(report);

    if (actual != expected) {
      // Print both documents whole: the diff IS the regression report.
      ADD_FAILURE() << "golden sweep drifted.\n--- expected (tiny_sweep.csv)\n"
                    << expected << "--- actual\n"
                    << actual
                    << "--- if the timing-model change is intentional, regenerate with:\n"
                       "    imac_run sweep --spec tests/golden/tiny_sweep.json "
                       "--out tests/golden/tiny_sweep.csv\n";
    }
  }
}

TEST(SweepGolden, TinySweepReproducesCheckedInJsonByteForByte) {
  // The JSON rendition is golden too: it locks the locale-pinned number
  // formatter (std::to_chars) in addition to the timing model.
  const SweepSpec spec = parse_sweep_spec_file(golden_path("tiny_sweep.json"));
  const std::string expected = read_file(golden_path("tiny_sweep_report.json"));
  const SweepReport report = run_sweep(spec, /*threads=*/2);
  EXPECT_EQ(report_to_json(report), expected)
      << "golden JSON drifted; regenerate with:\n    imac_run sweep --spec "
         "tests/golden/tiny_sweep.json --format json --out tests/golden/tiny_sweep_report.json\n";
}

TEST(SweepGolden, TinySweepRollupReproducesCheckedInCsvByteForByte) {
  // The network-rollup section is golden too: exact-mode cycles and access
  // counts fold into integer network totals, so the whole rollup-bearing
  // CSV is byte-stable like the per-point report.
  const SweepSpec spec = parse_sweep_spec_file(golden_path("tiny_sweep.json"));
  const std::string expected = read_file(golden_path("tiny_sweep_rollup.csv"));
  const SweepReport report = run_sweep(spec, /*threads=*/2);
  const std::string actual = report_to_csv(report) + rollup_to_csv(compute_rollup(report));
  EXPECT_EQ(actual, expected)
      << "golden rollup drifted; regenerate with:\n    imac_run sweep --spec "
         "tests/golden/tiny_sweep.json --rollup --out tests/golden/tiny_sweep_rollup.csv\n";
  // The point section of the rollup-bearing file IS the plain golden: the
  // parser stops at the marker, so both artifacts stay interchangeable for
  // merge/report/round-trip consumers.
  EXPECT_EQ(report_to_csv(parse_csv_report(expected)),
            read_file(golden_path("tiny_sweep.csv")));
}

TEST(SweepGolden, TwoShardsWithStoresMergeByteIdenticalToGolden) {
  // The acceptance path of the sharded/resumable subsystem, end to end:
  // run the canonical sweep as two digest-partitioned shards, each
  // journaling into its own store, merge the stores, and require the fused
  // CSV and JSON to equal the checked-in single-process artifacts byte for
  // byte. Then resume both shards against their warm stores and require
  // zero new simulations.
  namespace fs = std::filesystem;
  const SweepSpec spec = parse_sweep_spec_file(golden_path("tiny_sweep.json"));
  const std::vector<SweepPoint> points = expand_sweep(spec);
  std::vector<std::string> dirs;
  for (unsigned i = 1; i <= 2; ++i) {
    const fs::path dir = fs::path(::testing::TempDir()) / ("golden_shard" + std::to_string(i));
    fs::remove_all(dir);
    dirs.push_back(dir.string());
    ResultStore store(dirs.back());
    SweepCache cache;
    cache.attach_store(store, /*preload=*/true);
    BatchRunner pool(2);
    const auto shard_points = filter_shard(spec, points, ShardSpec{i, 2});
    (void)run_sweep(spec, shard_points, pool, &cache);
    EXPECT_EQ(store.appended(), shard_points.size()) << "shard " << i;
  }

  std::map<std::string, StoredResult> merged;
  for (const std::string& dir : dirs) {
    const ResultStore store(dir);
    accumulate_results(store, merged);
  }
  const SweepReport fused = assemble_report(spec, merged);
  EXPECT_EQ(report_to_csv(fused), read_file(golden_path("tiny_sweep.csv")));
  EXPECT_EQ(report_to_json(fused), read_file(golden_path("tiny_sweep_report.json")));

  for (unsigned i = 1; i <= 2; ++i) {
    ResultStore store(dirs[i - 1]);
    SweepCache cache;
    cache.attach_store(store, /*preload=*/true);
    BatchRunner pool(2);
    (void)run_sweep(spec, filter_shard(spec, points, ShardSpec{i, 2}), pool, &cache);
    EXPECT_EQ(store.appended(), 0u) << "resume of shard " << i << " re-simulated a point";
  }
}

TEST(SweepGolden, GoldenArtifactsAreStableUnderCommaDecimalLocale) {
  // End-to-end locale lock: the full parse-spec -> sweep -> render
  // pipeline must emit the checked-in bytes even when LC_NUMERIC says ','
  // is the decimal separator (CI runs the tier-1 gcc job under
  // de_DE.UTF-8 to keep this executing).
  testutil::ScopedCommaLocale locale;
  if (!locale.active()) GTEST_SKIP() << "no comma-decimal locale installed";
  const SweepSpec spec = parse_sweep_spec_file(golden_path("tiny_sweep.json"));
  const SweepReport report = run_sweep(spec, /*threads=*/2);
  EXPECT_EQ(report_to_csv(report), read_file(golden_path("tiny_sweep.csv")));
  EXPECT_EQ(report_to_json(report), read_file(golden_path("tiny_sweep_report.json")));
  // And the CSV re-parser reads them back unchanged under the same locale.
  EXPECT_EQ(report_to_csv(parse_csv_report(read_file(golden_path("tiny_sweep.csv")))),
            read_file(golden_path("tiny_sweep.csv")));
}

TEST(SweepGolden, GoldenCsvSurvivesHeaderHashCorruption) {
  // A damaged header hash must fail like any malformed field — SimError,
  // never an uncaught std::stoull exception aborting the report tool.
  const std::string csv = read_file(golden_path("tiny_sweep.csv"));
  const std::size_t hash_at = csv.find("hash=");
  ASSERT_NE(hash_at, std::string::npos);
  const std::string truncated = csv.substr(0, hash_at + 5) + "\n" + csv.substr(csv.find('\n') + 1);
  EXPECT_THROW((void)parse_csv_report(truncated), SimError);
  std::string garbled = csv;
  garbled.replace(hash_at + 5, 4, "zzzz");
  EXPECT_THROW((void)parse_csv_report(garbled), SimError);
}

TEST(SweepGolden, GoldenCsvIsSelfConsistent) {
  // The checked-in artifact itself parses, re-renders identically, and
  // carries the spec's full grid (guards against hand-edited golden files).
  const std::string csv = read_file(golden_path("tiny_sweep.csv"));
  const SweepReport parsed = parse_csv_report(csv);
  EXPECT_EQ(report_to_csv(parsed), csv);

  const SweepSpec spec = parse_sweep_spec_file(golden_path("tiny_sweep.json"));
  EXPECT_EQ(parsed.spec_name, spec.name);
  EXPECT_EQ(parsed.rows.size(), expand_sweep(spec).size());
  for (const SweepRow& row : parsed.rows) {
    EXPECT_EQ(row.point.mode, SweepMode::kExact);
    EXPECT_GT(row.cycles, 0.0);
    EXPECT_GT(row.data_accesses, 0u);
  }
}

TEST(SweepGolden, HeadlineSpeedupHoldsInGoldenData) {
  // The paper's core claim, locked into the golden artifact: for every
  // (shape, sparsity, unroll) cell, indexmac beats rowwise and performs
  // fewer memory accesses.
  const SweepReport parsed = parse_csv_report(read_file(golden_path("tiny_sweep.csv")));
  std::size_t pairs = 0;
  for (const SweepRow& a : parsed.rows) {
    if (a.point.config.algorithm != Algorithm::kRowwiseSpmm) continue;
    for (const SweepRow& b : parsed.rows) {
      if (b.point.config.algorithm != Algorithm::kIndexmac) continue;
      if (b.point.workload != a.point.workload || !(b.point.sp == a.point.sp) ||
          b.point.config.kernel.unroll != a.point.config.kernel.unroll)
        continue;
      ++pairs;
      EXPECT_GT(a.cycles, b.cycles) << a.point.workload;
      EXPECT_GE(a.data_accesses, b.data_accesses) << a.point.workload;
    }
  }
  EXPECT_EQ(pairs, 12u);  // 3 shapes x 2 sparsities x 2 unrolls
}

TEST(SweepGolden, Algorithm4BeatsAlgorithm3InGoldenData) {
  // The follow-up paper's claim, also locked in: the packed-index/dual-row
  // kernel spends fewer simulated cycles than Algorithm 3 in every
  // (shape, sparsity, unroll) cell, at no extra memory accesses.
  const SweepReport parsed = parse_csv_report(read_file(golden_path("tiny_sweep.csv")));
  std::size_t pairs = 0;
  for (const SweepRow& a : parsed.rows) {
    if (a.point.config.algorithm != Algorithm::kIndexmac) continue;
    for (const SweepRow& b : parsed.rows) {
      if (b.point.config.algorithm != Algorithm::kIndexmac4) continue;
      if (b.point.workload != a.point.workload || !(b.point.sp == a.point.sp) ||
          b.point.config.kernel.unroll != a.point.config.kernel.unroll)
        continue;
      ++pairs;
      EXPECT_GT(a.cycles, b.cycles) << a.point.workload;
      EXPECT_GE(a.data_accesses, b.data_accesses) << a.point.workload;
    }
  }
  EXPECT_EQ(pairs, 12u);  // 3 shapes x 2 sparsities x 2 unrolls
}

}  // namespace
}  // namespace indexmac::core
