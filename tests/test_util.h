// Shared test scaffolding: a small in-memory database fixture, synthetic
// tables with controllable clustering, and brute-force reference
// implementations the SMA machinery is checked against.

#ifndef SMADB_TESTS_TEST_UTIL_H_
#define SMADB_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>
#include <stdlib.h>

#include <algorithm>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "exec/aggregate.h"
#include "exec/batch.h"
#include "exec/bucket_source.h"
#include "exec/operator.h"
#include "expr/predicate.h"
#include "sma/builder.h"
#include "sma/grade.h"
#include "sma/sma_set.h"
#include "storage/catalog.h"
#include "storage/file_disk.h"
#include "util/rng.h"

namespace smadb::testing {

/// Unwraps a Result in a test; aborts the test binary on error (there is no
/// value to continue with, so failing soft would be undefined behaviour).
template <typename T>
T Unwrap(util::Result<T> r) {
  if (!r.ok()) {
    ADD_FAILURE() << "Unwrap of failed Result: " << r.status().ToString();
    std::abort();
  }
  return std::move(r).value();
}

inline void ExpectOk(const util::Status& s) {
  EXPECT_TRUE(s.ok()) << s.ToString();
}

/// RAII temp directory (mkdtemp; removed recursively on destruction). The
/// scaffolding for file-backend fixtures and the durability suite.
struct ScopedTempDir {
  ScopedTempDir() {
    char tmpl[] = "/tmp/smadb_test_XXXXXX";
    const char* d = ::mkdtemp(tmpl);
    EXPECT_NE(d, nullptr);
    path = d != nullptr ? d : "";
  }
  ~ScopedTempDir() {
    if (!path.empty()) {
      std::error_code ec;  // best-effort; never throw from a destructor
      std::filesystem::remove_all(path, ec);
    }
  }
  ScopedTempDir(const ScopedTempDir&) = delete;
  ScopedTempDir& operator=(const ScopedTempDir&) = delete;

  std::string path;
};

/// Storage + pool + catalog test fixture. Defaults to the simulated backend;
/// pass BackendKind::kFile to run the identical test against real files in a
/// scoped temp directory (the fault matrix does both).
struct TestDb {
  explicit TestDb(size_t pool_pages = 4096,
                  storage::BackendKind kind = storage::BackendKind::kSimulated)
      : backend(MakeBackend(kind, tmpdir.path)),
        disk(*backend),
        pool(backend.get(), pool_pages),
        catalog(&pool) {}

  static std::unique_ptr<storage::DiskBackend> MakeBackend(
      storage::BackendKind kind, const std::string& dir) {
    if (kind == storage::BackendKind::kFile) {
      return Unwrap(storage::FileDiskManager::Open(dir + "/pages"));
    }
    return std::make_unique<storage::SimulatedDisk>();
  }

  ScopedTempDir tmpdir;  // must outlive (so: precede) the backend
  std::unique_ptr<storage::DiskBackend> backend;
  storage::DiskBackend& disk;
  storage::BufferPool pool;
  storage::Catalog catalog;
};

/// Schema used by most synthetic tests:
///   (k int64, d date, v decimal, grp char(1), tag char(4))
inline storage::Schema SyntheticSchema() {
  return storage::Schema({
      storage::Field::Int64("k"),
      storage::Field::Date("d"),
      storage::Field::Decimal("v"),
      storage::Field::String("grp", 1),
      storage::Field::String("tag", 4),
  });
}

enum class Layout {
  kClustered,   // d strictly increases with position
  kNoisy,       // d increases with jitter (diagonal clustering)
  kRandom,      // d uniform random
};

/// Populates `n` rows into a fresh synthetic table.
/// d spans ~[0, n/8] days; v = k*3 cents; grp in {A,B,C}; tag in 4 values.
inline storage::Table* MakeSyntheticTable(TestDb* db, int64_t n, Layout layout,
                                          uint64_t seed = 11,
                                          uint32_t bucket_pages = 1,
                                          const std::string& name = "t") {
  storage::Table* table =
      Unwrap(db->catalog.CreateTable(name, SyntheticSchema(),
                                     storage::TableOptions{bucket_pages}));
  util::Rng rng(seed);
  static const char* kTags[] = {"MAIL", "RAIL", "SHIP", "AIR"};
  storage::TupleBuffer t(&table->schema());
  for (int64_t i = 0; i < n; ++i) {
    int32_t day;
    switch (layout) {
      case Layout::kClustered:
        day = static_cast<int32_t>(i / 8);
        break;
      case Layout::kNoisy:
        day = static_cast<int32_t>(i / 8 + rng.Uniform(-2, 2));
        break;
      case Layout::kRandom:
      default:
        day = static_cast<int32_t>(rng.Uniform(0, n / 8));
        break;
    }
    t.SetInt64(0, i);
    t.SetDate(1, util::Date(day));
    t.SetDecimal(2, util::Decimal(i * 3));
    const char grp = static_cast<char>('A' + rng.Uniform(0, 2));
    t.SetString(3, std::string_view(&grp, 1));
    t.SetString(4, kTags[rng.Uniform(0, 3)]);
    ExpectOk(table->Append(t));
  }
  return table;
}

/// Brute-force reference: does every / any / no tuple of `bucket` satisfy
/// `pred`? Returns {all, any}.
inline std::pair<bool, bool> BucketTruth(storage::Table* table,
                                         uint32_t bucket,
                                         const expr::Predicate& pred) {
  bool all = true, any = false;
  EXPECT_TRUE(table
                  ->ForEachTupleInBucket(
                      bucket,
                      [&](const storage::TupleRef& t, storage::Rid) {
                        const bool sat = pred.Eval(t);
                        all &= sat;
                        any |= sat;
                      })
                  .ok());
  return {all, any};
}

/// Soundness check of one grade against brute force: qualifying buckets
/// must be all-satisfying, disqualifying buckets must be none-satisfying.
inline void ExpectGradeSound(storage::Table* table, uint32_t bucket,
                             const expr::Predicate& pred, sma::Grade grade) {
  const auto [all, any] = BucketTruth(table, bucket, pred);
  switch (grade) {
    case sma::Grade::kQualifies:
      EXPECT_TRUE(all) << "bucket " << bucket
                       << " graded qualifies but has non-matching tuples";
      break;
    case sma::Grade::kDisqualifies:
      EXPECT_FALSE(any) << "bucket " << bucket
                        << " graded disqualifies but has matching tuples";
      break;
    case sma::Grade::kAmbivalent:
      break;  // always sound
  }
}

/// Compares a maintained SMA against a fresh bulk rebuild over the table's
/// current contents. Groups the maintainer created but whose tuples have
/// since disappeared (moved or deleted) won't be rediscovered by a rebuild;
/// such groups must hold only identity entries.
inline void ExpectSmaEqualsRebuild(storage::Table* table,
                                   const sma::Sma& maintained) {
  sma::SmaSpec spec = maintained.spec();
  spec.name += "_rebuild";
  auto rebuilt_r = sma::BuildSma(table, std::move(spec));
  ASSERT_TRUE(rebuilt_r.ok()) << rebuilt_r.status().ToString();
  const auto& rebuilt = *rebuilt_r;
  ASSERT_EQ(maintained.num_buckets(), rebuilt->num_buckets());
  ASSERT_LE(rebuilt->num_groups(), maintained.num_groups())
      << maintained.spec().name;
  for (size_t g = 0; g < maintained.num_groups(); ++g) {
    const int64_t rg = rebuilt->FindGroup(maintained.group_key(g));
    for (uint64_t b = 0; b < maintained.num_buckets(); ++b) {
      const int64_t got = Unwrap(maintained.group_file(g)->Get(b));
      const int64_t want =
          rg >= 0 ? Unwrap(rebuilt->group_file(static_cast<size_t>(rg))
                               ->Get(b))
                  : maintained.IdentityEntry();
      EXPECT_EQ(got, want) << maintained.spec().name << " group " << g
                           << " bucket " << b;
    }
  }
}

/// Builds and registers min/max SMAs on column `col_name` of `table`.
inline void AddMinMaxSmas(storage::Table* table, sma::SmaSet* smas,
                          const std::string& col_name,
                          const std::string& prefix = "") {
  const expr::ExprPtr col =
      Unwrap(expr::Column(&table->schema(), col_name));
  ExpectOk(smas->Add(Unwrap(
      sma::BuildSma(table, sma::SmaSpec::Min(prefix + "min_" + col_name,
                                             col)))));
  ExpectOk(smas->Add(Unwrap(
      sma::BuildSma(table, sma::SmaSpec::Max(prefix + "max_" + col_name,
                                             col)))));
}

/// Serializes one row as "v|v|...|" (Value::ToString per column).
inline std::string RowString(const storage::TupleRef& t) {
  std::string row;
  for (size_t c = 0; c < t.schema().num_fields(); ++c) {
    row += t.GetValue(c).ToString();
    row += '|';
  }
  return row;
}

/// Runs `op` to completion through batches of `batch_size` rows (full
/// projection) and serializes every selected row in the RowString format,
/// in output order.
inline std::vector<std::string> DrainRowStrings(
    exec::Operator* op, size_t batch_size = exec::kDefaultBatchSize) {
  ExpectOk(op->Init());
  std::vector<std::string> rows;
  exec::Batch batch;
  batch.Configure(&op->output_schema(), batch_size);
  while (true) {
    auto has = op->NextBatch(&batch);
    EXPECT_TRUE(has.ok()) << has.status().ToString();
    if (!has.ok() || !*has) break;
    for (size_t k = 0; k < batch.sel.count(); ++k) {
      std::string row;
      for (size_t c = 0; c < op->output_schema().num_fields(); ++c) {
        row += batch.cols.GetValue(c, batch.sel.row(k)).ToString();
        row += '|';
      }
      rows.push_back(std::move(row));
    }
  }
  return rows;
}

/// Brute-force reference for `select * from table where pred`, independent
/// of the engine's scan machinery (no BucketReader, ColumnBatch or
/// EvalBatch): the rows Predicate::Eval accepts, bucket by bucket, in the
/// RowString format and in storage order.
inline std::vector<std::string> ReferenceSelect(storage::Table* table,
                                                const expr::Predicate& pred) {
  std::vector<std::string> rows;
  for (uint32_t b = 0; b < table->num_buckets(); ++b) {
    ExpectOk(table->ForEachTupleInBucket(
        b, [&](const storage::TupleRef& t, storage::Rid) {
          if (pred.Eval(t)) rows.push_back(RowString(t));
        }));
  }
  return rows;
}

/// Every bucket's grade for `pred`, through the one grading entry point
/// the engine uses (BucketSource::GradeLatched with a fresh grader).
inline std::vector<sma::Grade> GradeBuckets(storage::Table* table,
                                            const expr::PredicatePtr& pred,
                                            const sma::SmaSet* smas) {
  const exec::BucketSource source(table, pred, smas);
  const std::unique_ptr<sma::BucketGrader> grader = source.NewGrader();
  std::vector<sma::Grade> grades;
  for (uint64_t b = 0; b < source.num_buckets(); ++b) {
    grades.push_back(Unwrap(source.GradeLatched(grader.get(), b)));
  }
  return grades;
}

/// Brute-force reference for grouping aggregation, independent of the
/// engine's group machinery (no GroupTable, GroupState or BatchAggregator):
/// walks the buckets with Table::ForEachTupleInBucket, keeps the rows
/// `pred` accepts, and folds them into plain int64 (cents) accumulators.
/// `include` (optional) restricts the walk to some buckets — the degraded
/// SMA-only answer covers qualifying buckets only. Returns rows in the
/// DrainRowStrings format and in the engine's group order (key Values'
/// ToString joined with '\x1f'); groups without a row do not appear.
inline std::vector<std::string> ReferenceAggregate(
    storage::Table* table, const expr::Predicate& pred,
    const std::vector<size_t>& group_by,
    const std::vector<exec::AggSpec>& aggs,
    const std::function<bool(uint32_t)>& include = nullptr) {
  struct Acc {
    std::vector<util::Value> key;
    int64_t count = 0;
    std::vector<int64_t> sum, min, max;
  };
  std::map<std::string, Acc> groups;
  for (uint32_t b = 0; b < table->num_buckets(); ++b) {
    if (include != nullptr && !include(b)) continue;
    ExpectOk(table->ForEachTupleInBucket(
        b, [&](const storage::TupleRef& t, storage::Rid) {
          if (!pred.Eval(t)) return;
          std::string skey;
          std::vector<util::Value> key;
          for (size_t col : group_by) {
            key.push_back(t.GetValue(col));
            skey += key.back().ToString() + '\x1f';
          }
          Acc& acc = groups[skey];
          if (acc.count == 0) {
            acc.key = std::move(key);
            acc.sum.assign(aggs.size(), 0);
            acc.min.assign(aggs.size(), INT64_MAX);
            acc.max.assign(aggs.size(), INT64_MIN);
          }
          ++acc.count;
          for (size_t i = 0; i < aggs.size(); ++i) {
            if (aggs[i].arg == nullptr) continue;
            const int64_t x = aggs[i].arg->EvalInt(t);
            acc.sum[i] += x;
            acc.min[i] = std::min(acc.min[i], x);
            acc.max[i] = std::max(acc.max[i], x);
          }
        }));
  }
  // An integral-family value of `type` from its raw int64 payload.
  auto typed = [](util::TypeId type, int64_t v) {
    switch (type) {
      case util::TypeId::kInt32:
        return util::Value::Int32(static_cast<int32_t>(v));
      case util::TypeId::kDate:
        return util::Value::MakeDate(util::Date(static_cast<int32_t>(v)));
      case util::TypeId::kDecimal:
        return util::Value::MakeDecimal(util::Decimal(v));
      default:
        return util::Value::Int64(v);
    }
  };
  std::vector<std::string> rows;
  for (const auto& [skey, acc] : groups) {
    std::string row;
    for (const util::Value& v : acc.key) row += v.ToString() + '|';
    for (size_t i = 0; i < aggs.size(); ++i) {
      const exec::AggSpec& a = aggs[i];
      util::Value out;
      switch (a.kind) {
        case exec::AggKind::kCount:
          out = util::Value::Int64(acc.count);
          break;
        case exec::AggKind::kSum:
          out = a.arg->type() == util::TypeId::kDecimal
                    ? util::Value::MakeDecimal(util::Decimal(acc.sum[i]))
                    : util::Value::Int64(acc.sum[i]);
          break;
        case exec::AggKind::kAvg: {
          double sum = static_cast<double>(acc.sum[i]);
          if (a.arg->type() == util::TypeId::kDecimal) sum /= 100.0;
          out = util::Value::MakeDouble(sum / static_cast<double>(acc.count));
          break;
        }
        case exec::AggKind::kMin:
          out = typed(a.arg->type(), acc.min[i]);
          break;
        case exec::AggKind::kMax:
          out = typed(a.arg->type(), acc.max[i]);
          break;
      }
      row += out.ToString() + '|';
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace smadb::testing

#endif  // SMADB_TESTS_TEST_UTIL_H_
