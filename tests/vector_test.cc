// Vectorized-execution tests (ctest label `vector`):
//
//   * SelVector unit behaviour — dense fast path, Filter refinement,
//     UnionWith merge.
//   * EvalBatch ≡ Eval — every predicate shape agrees row-for-row with
//     tuple-at-a-time evaluation, including AND/OR trees and string atoms.
//   * Scan ≡ reference — SmaScan with and without SMAs returns exactly the
//     brute-force selection across layouts × predicates × batch sizes ×
//     bucket sizes, and fills batches across same-grade buckets.
//   * Aggregation equality — GAggr and BucketAggr under every action table
//     equal a brute-force aggregation across batch sizes, DOPs, layouts,
//     all five aggregates and 0/1/2-column group-bys.
//   * Fault injection — the degradation ladder demotes correctly with the
//     vectorized engine: runs return the fault-free rows exactly or a typed
//     error, and mid-run demotion reruns (vectorized) from base data.

#include <gtest/gtest.h>

#include "db/database.h"
#include "db/session.h"
#include "exec/bucket_aggr.h"
#include "exec/gaggr.h"
#include "exec/sma_scan.h"
#include "planner/planner.h"
#include "tests/test_util.h"
#include "tpch/loader.h"
#include "util/fault.h"

namespace smadb {
namespace {

using exec::AggSpec;
using exec::Batch;
using expr::CmpOp;
using expr::Predicate;
using expr::PredicatePtr;
using storage::ColumnBatch;
using storage::SelVector;
using storage::TupleRef;
using testing::AddMinMaxSmas;
using testing::DrainRowStrings;
using testing::ExpectOk;
using testing::Layout;
using testing::MakeSyntheticTable;
using testing::TestDb;
using testing::Unwrap;
using util::FaultKind;
using util::StatusCode;
using util::Value;

// ------------------------------------------------------- SelVector units --

TEST(SelVectorTest, DenseStateAndAccessors) {
  SelVector sel;
  EXPECT_TRUE(sel.empty());
  sel.SelectAll(5);
  EXPECT_TRUE(sel.dense());
  EXPECT_EQ(sel.count(), 5u);
  EXPECT_EQ(sel.row(3), 3u);
  sel.SelectNone();
  EXPECT_TRUE(sel.empty());
}

TEST(SelVectorTest, FilterKeepingEverythingStaysDense) {
  SelVector sel;
  sel.SelectAll(100);
  sel.Filter([](uint32_t) { return true; });
  EXPECT_TRUE(sel.dense());
  EXPECT_EQ(sel.count(), 100u);
}

TEST(SelVectorTest, FilterMaterializesOnFirstRejection) {
  SelVector sel;
  sel.SelectAll(10);
  sel.Filter([](uint32_t r) { return r % 3 == 0; });  // 0 3 6 9
  EXPECT_FALSE(sel.dense());
  ASSERT_EQ(sel.count(), 4u);
  EXPECT_EQ(sel.row(0), 0u);
  EXPECT_EQ(sel.row(3), 9u);
  sel.Filter([](uint32_t r) { return r >= 3; });  // 3 6 9
  EXPECT_EQ(sel.indices(), (std::vector<uint32_t>{3, 6, 9}));
}

TEST(SelVectorTest, UnionMergesSortedAndDedups) {
  SelVector a;
  a.SelectAll(10);
  a.Filter([](uint32_t r) { return r % 2 == 0; });  // 0 2 4 6 8
  SelVector b;
  b.SelectAll(10);
  b.Filter([](uint32_t r) { return r % 3 == 0; });  // 0 3 6 9
  a.UnionWith(b);
  EXPECT_EQ(a.indices(), (std::vector<uint32_t>{0, 2, 3, 4, 6, 8, 9}));

  SelVector dense;
  dense.SelectAll(10);
  b.UnionWith(dense);  // a dense side absorbs the explicit one
  EXPECT_TRUE(dense.dense());
  EXPECT_TRUE(b.dense());
  EXPECT_EQ(b.count(), 10u);
}

// --------------------------------------------------- EvalBatch ≡ Eval ----

// Builds a ColumnBatch over the first `n` tuples of `t` (full projection)
// and checks that EvalBatch's surviving rows are exactly the rows Eval
// keeps.
void ExpectEvalAgrees(storage::Table* t, int64_t n, const PredicatePtr& pred) {
  ColumnBatch batch;
  batch.Configure(&t->schema(), static_cast<size_t>(n));
  std::vector<bool> want;
  ExpectOk(t->ForEachTupleInBucket(0, [&](const TupleRef& tup, storage::Rid) {
    if (batch.full()) return;
    batch.AppendRow(tup);
    want.push_back(pred->Eval(tup));
  }));
  SelVector sel;
  sel.SelectAll(static_cast<uint32_t>(batch.num_rows()));
  pred->EvalBatch(batch, &sel);
  std::vector<bool> got(batch.num_rows(), false);
  for (size_t k = 0; k < sel.count(); ++k) got[sel.row(k)] = true;
  EXPECT_EQ(got, want) << pred->ToString(&t->schema());
}

TEST(EvalBatchTest, AtomsAndCompositesAgreeWithScalarEval) {
  TestDb db(16384);
  storage::Table* t =
      MakeSyntheticTable(&db, 400, Layout::kRandom, /*seed=*/3,
                         /*bucket_pages=*/16);
  const auto& schema = t->schema();
  const PredicatePtr d_le = Unwrap(Predicate::AtomConst(
      &schema, "d", CmpOp::kLe, Value::MakeDate(util::Date(25))));
  const PredicatePtr k_gt = Unwrap(Predicate::AtomConst(
      &schema, "k", CmpOp::kGt, Value::Int64(100)));
  const PredicatePtr grp_eq =
      Unwrap(Predicate::AtomString(&schema, "grp", CmpOp::kEq, "B"));
  const PredicatePtr tag_ne =
      Unwrap(Predicate::AtomString(&schema, "tag", CmpOp::kNe, "MAIL"));

  ExpectEvalAgrees(t, 400, Predicate::True());
  ExpectEvalAgrees(t, 400, d_le);
  ExpectEvalAgrees(t, 400, k_gt);
  ExpectEvalAgrees(t, 400, grp_eq);
  ExpectEvalAgrees(t, 400, tag_ne);
  ExpectEvalAgrees(t, 400, Predicate::And(d_le, grp_eq));
  ExpectEvalAgrees(t, 400, Predicate::Or(k_gt, grp_eq));
  ExpectEvalAgrees(t, 400, Predicate::Or(Predicate::And(d_le, tag_ne),
                                         Predicate::And(k_gt, grp_eq)));
  for (CmpOp op : {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt, CmpOp::kLe, CmpOp::kGt,
                   CmpOp::kGe}) {
    ExpectEvalAgrees(t, 400,
                     Unwrap(Predicate::AtomConst(
                         &schema, "d", op, Value::MakeDate(util::Date(20)))));
  }
}

TEST(EvalBatchTest, TwoColumnAtomAgreesWithScalarEval) {
  TestDb db;
  storage::Table* t = Unwrap(db.catalog.CreateTable(
      "two", storage::Schema({storage::Field::Int64("a"),
                              storage::Field::Int64("b")}),
      {}));
  storage::TupleBuffer buf(&t->schema());
  util::Rng rng(9);
  for (int i = 0; i < 300; ++i) {
    buf.SetInt64(0, rng.Uniform(0, 50));
    buf.SetInt64(1, rng.Uniform(0, 50));
    ExpectOk(t->Append(buf));
  }
  for (CmpOp op : {CmpOp::kLt, CmpOp::kLe, CmpOp::kEq}) {
    ExpectEvalAgrees(t, 300,
                     Unwrap(Predicate::AtomTwoCols(&t->schema(), "a", op,
                                                   "b")));
  }
}

// ------------------------------------------------ scan ≡ reference -----

using ScanParam = std::tuple<size_t /*batch_size*/, uint32_t /*bucket_pages*/>;

class BatchScanEquivalenceP : public ::testing::TestWithParam<ScanParam> {};

// SmaScan with and without SMAs returns exactly the brute-force selection
// (ReferenceSelect shares no scan code with the engine) for every layout,
// predicate shape, batch size and bucket size.
TEST_P(BatchScanEquivalenceP, EveryOperatorReturnsTheRowPathTuples) {
  const auto [batch_size, bucket_pages] = GetParam();
  TestDb db(16384);
  for (const Layout layout :
       {Layout::kClustered, Layout::kNoisy, Layout::kRandom}) {
    storage::Table* t = MakeSyntheticTable(
        &db, 2000, layout, /*seed=*/21, bucket_pages,
        "t" + std::to_string(static_cast<int>(layout)));
    sma::SmaSet smas(t);
    AddMinMaxSmas(t, &smas, "d");
    const auto& schema = t->schema();

    const std::vector<PredicatePtr> preds = {
        Predicate::True(),
        Unwrap(Predicate::AtomConst(&schema, "d", CmpOp::kLe,
                                    Value::MakeDate(util::Date(125)))),
        Unwrap(Predicate::AtomConst(&schema, "d", CmpOp::kGt,
                                    Value::MakeDate(util::Date(500)))),
        Predicate::And(
            Unwrap(Predicate::AtomConst(&schema, "d", CmpOp::kLe,
                                        Value::MakeDate(util::Date(125)))),
            Unwrap(Predicate::AtomString(&schema, "grp", CmpOp::kEq, "A"))),
        Predicate::Or(
            Unwrap(Predicate::AtomConst(&schema, "k", CmpOp::kLt,
                                        Value::Int64(64))),
            Unwrap(
                Predicate::AtomString(&schema, "tag", CmpOp::kEq, "RAIL"))),
    };

    for (size_t p = 0; p < preds.size(); ++p) {
      SCOPED_TRACE(::testing::Message()
                   << "layout " << static_cast<int>(layout) << " pred " << p);
      const PredicatePtr& pred = preds[p];
      const std::vector<std::string> want = testing::ReferenceSelect(t, *pred);
      exec::SmaScan plain(t, pred, nullptr);
      EXPECT_EQ(DrainRowStrings(&plain, batch_size), want) << "without SMAs";
      exec::SmaScan pruned(t, pred, &smas);
      EXPECT_EQ(DrainRowStrings(&pruned, batch_size), want) << "with SMAs";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BatchScanEquivalenceP,
    ::testing::Combine(::testing::Values(size_t{1}, size_t{3}, size_t{7},
                                         size_t{64}, size_t{1024}),
                       ::testing::Values(1u, 4u)),
    [](const ::testing::TestParamInfo<ScanParam>& info) {
      return "Bs" + std::to_string(std::get<0>(info.param)) + "Bp" +
             std::to_string(std::get<1>(info.param));
    });

// A scan fills each batch across consecutive buckets of one grade: over a
// shipdate-sorted table with one-page buckets, a long qualifying run comes
// back in ceil(rows / batch_size) batches, not one batch per bucket.
TEST(BatchScanFillTest, QualifyingRunFillsBatchesAcrossBuckets) {
  TestDb db(16384);
  tpch::LoadOptions load;
  load.mode = tpch::ClusterMode::kShipdateSorted;
  storage::Table* t = Unwrap(tpch::GenerateAndLoadLineItem(
      &db.catalog, {0.002, 42}, load, nullptr, "li_sorted"));
  sma::SmaSet smas(t);
  AddMinMaxSmas(t, &smas, "l_shipdate");
  const PredicatePtr pred = Unwrap(Predicate::AtomConst(
      &t->schema(), "l_shipdate", CmpOp::kLe,
      Value::MakeDate(util::Date::FromYmd(1998, 9, 2))));
  const std::vector<sma::Grade> grades =
      testing::GradeBuckets(t, pred, &smas);

  for (const size_t batch_size : {size_t{100}, size_t{1024}}) {
    SCOPED_TRACE(::testing::Message() << "batch " << batch_size);
    // Expected batches: a run of same-grade fetched buckets (skipped
    // buckets do not end a run) fills ceil(run rows / batch_size) batches.
    uint64_t want_batches = 0, run_rows = 0, fetched = 0;
    sma::Grade run_grade = sma::Grade::kQualifies;
    for (uint32_t b = 0; b < grades.size(); ++b) {
      if (grades[b] == sma::Grade::kDisqualifies) continue;
      ++fetched;
      if (grades[b] != run_grade) {
        want_batches += (run_rows + batch_size - 1) / batch_size;
        run_rows = 0;
        run_grade = grades[b];
      }
      ExpectOk(t->ForEachTupleInBucket(
          b, [&](const TupleRef&, storage::Rid) { ++run_rows; }));
    }
    want_batches += (run_rows + batch_size - 1) / batch_size;
    EXPECT_LT(want_batches * 2, fetched) << "the run spans many buckets";

    exec::SmaScan scan(t, pred, &smas);
    obs::QueryProfile profile;
    util::QueryContext ctx;
    ctx.set_profile(&profile);
    scan.BindContext(&ctx);
    EXPECT_EQ(DrainRowStrings(&scan, batch_size),
              testing::ReferenceSelect(t, *pred));
    ASSERT_EQ(profile.roots().size(), 1u);
    EXPECT_EQ(profile.roots()[0]->batches(), want_batches);
  }
}

// Pipeline breakers copy their materialized rows into the caller's batches:
// GAggr pulled at a batch size smaller than its group count returns the
// brute-force groups.
TEST(BatchDefaultAdapterTest, PipelineBreakerServesBatchesViaDefaultAdapter) {
  TestDb db(16384);
  storage::Table* t = MakeSyntheticTable(&db, 1500, Layout::kNoisy, 31);
  const expr::ExprPtr v = Unwrap(expr::Column(&t->schema(), "v"));
  const std::vector<AggSpec> aggs = {AggSpec::Sum(v, "sum_v"),
                                     AggSpec::Count("cnt")};
  const PredicatePtr pred = Unwrap(Predicate::AtomConst(
      &t->schema(), "d", CmpOp::kLe, Value::MakeDate(util::Date(100))));
  auto batches = Unwrap(exec::GAggr::Make(
      std::make_unique<exec::SmaScan>(t, pred, nullptr), {3, 4}, aggs));
  const std::vector<std::string> want =
      testing::ReferenceAggregate(t, *pred, {3, 4}, aggs);
  EXPECT_GT(want.size(), 7u);
  EXPECT_EQ(DrainRowStrings(batches.get(), 7), want);
}

// Projection pushdown: a consumer-built mask unioned with the producer's
// requirements decodes only those columns, and the decoded values match.
TEST(BatchProjectionTest, PartialProjectionDecodesRequestedColumns) {
  TestDb db(16384);
  storage::Table* t = MakeSyntheticTable(&db, 500, Layout::kClustered, 41);
  const PredicatePtr pred = Unwrap(Predicate::AtomConst(
      &t->schema(), "d", CmpOp::kLe, Value::MakeDate(util::Date(30))));
  exec::SmaScan scan(t, pred, nullptr);
  std::vector<bool> mask(t->schema().num_fields(), false);
  mask[0] = true;  // consumer reads k
  scan.AddRequiredBatchColumns(&mask);
  EXPECT_TRUE(mask[1]);  // the predicate's column d joined the projection

  ExpectOk(scan.Init());
  Batch batch;
  batch.Configure(&t->schema(), 128, mask);
  const std::vector<std::string> expected = testing::ReferenceSelect(t, *pred);
  size_t row_no = 0;
  while (true) {
    auto has = scan.NextBatch(&batch);
    ExpectOk(has.status());
    if (!*has) break;
    EXPECT_TRUE(batch.cols.decoded(0));
    EXPECT_TRUE(batch.cols.decoded(1));
    EXPECT_FALSE(batch.cols.decoded(2));
    for (size_t k = 0; k < batch.sel.count(); ++k, ++row_no) {
      ASSERT_LT(row_no, expected.size());
      // expected rows are "k|d|v|grp|tag|"; compare the leading k field.
      const std::string k_str =
          batch.cols.GetValue(0, batch.sel.row(k)).ToString();
      EXPECT_EQ(expected[row_no].substr(0, k_str.size() + 1), k_str + "|");
    }
  }
  EXPECT_EQ(row_no, expected.size());
}

// ------------------------------------- aggregation ≡ brute force -------

using AggrParam = std::tuple<size_t /*batch_size*/, size_t /*dop*/>;

class BatchAggrEquivalenceP : public ::testing::TestWithParam<AggrParam> {};

TEST_P(BatchAggrEquivalenceP, RowAndBatchModesProduceIdenticalGroups) {
  const auto [batch_size, dop] = GetParam();
  TestDb db(16384);
  for (const Layout layout :
       {Layout::kClustered, Layout::kNoisy, Layout::kRandom}) {
    storage::Table* t = MakeSyntheticTable(
        &db, 3000, layout, 17, 1,
        "t" + std::to_string(static_cast<int>(layout)));
    // Aggregate SMAs grouped by (grp, tag) refine every query grouping
    // below, so SMA_GAggr binds for all of them.
    sma::SmaSet smas(t);
    AddMinMaxSmas(t, &smas, "d");
    const expr::ExprPtr v = Unwrap(expr::Column(&t->schema(), "v"));
    const expr::ExprPtr v1 = Unwrap(expr::OnePlus(v));  // ArithExpr kernel
    for (const sma::SmaSpec& spec :
         {sma::SmaSpec::Sum("s", v, {3, 4}), sma::SmaSpec::Count("c", {3, 4}),
          sma::SmaSpec::Min("mn", v, {3, 4}),
          sma::SmaSpec::Max("mx", v, {3, 4})}) {
      ExpectOk(smas.Add(Unwrap(sma::BuildSma(t, spec))));
    }
    const std::vector<AggSpec> aggs = {
        AggSpec::Sum(v, "sum_v"), AggSpec::Count("cnt"),
        AggSpec::Avg(v, "avg_v"), AggSpec::Min(v, "min_v"),
        AggSpec::Max(v, "max_v")};
    std::vector<AggSpec> fetch_aggs = aggs;  // no SMA for sum(1 + v)
    fetch_aggs.push_back(AggSpec::Sum(v1, "sum_v1"));
    const PredicatePtr pred = Unwrap(Predicate::AtomConst(
        &t->schema(), "d", CmpOp::kLe, Value::MakeDate(util::Date(188))));

    // The degraded SMA-only answer covers exactly the qualifying buckets.
    const std::vector<sma::Grade> grades =
        testing::GradeBuckets(t, pred, &smas);
    auto is_qualifying = [&](uint32_t b) -> bool {
      return grades[b] == sma::Grade::kQualifies;
    };

    for (const std::vector<size_t>& group_by :
         {std::vector<size_t>{}, std::vector<size_t>{3},
          std::vector<size_t>{3, 4}}) {
      SCOPED_TRACE(::testing::Message()
                   << "layout " << static_cast<int>(layout)
                   << " group_by size " << group_by.size());
      const auto want = testing::ReferenceAggregate(t, *pred, group_by, aggs);
      const auto want_fetch =
          testing::ReferenceAggregate(t, *pred, group_by, fetch_aggs);
      {
        auto op = Unwrap(exec::GAggr::Make(
            std::make_unique<exec::SmaScan>(t, pred, nullptr), group_by,
            fetch_aggs, batch_size));
        EXPECT_EQ(DrainRowStrings(op.get()), want_fetch) << "GAggr(TableScan)";
      }
      {
        auto op = Unwrap(exec::GAggr::Make(
            std::make_unique<exec::SmaScan>(t, pred, &smas), group_by,
            fetch_aggs, batch_size));
        EXPECT_EQ(DrainRowStrings(op.get()), want_fetch) << "GAggr(SmaScan)";
      }
      exec::BucketAggrOptions options;
      options.batch_size = batch_size;
      options.degree_of_parallelism = dop;
      auto run = [&](const exec::BucketActions& actions,
                     const sma::SmaSet* with,
                     const std::vector<AggSpec>& with_aggs) {
        auto op = Unwrap(exec::BucketAggr::Make(t, pred, group_by, with_aggs,
                                                with, actions, options));
        return DrainRowStrings(op.get());
      };
      EXPECT_EQ(run(exec::kSmaGAggrActions, &smas, aggs), want);
      EXPECT_EQ(run(exec::kSmaScanAggrActions, &smas, fetch_aggs),
                want_fetch);
      EXPECT_EQ(run(exec::kScanAggrActions, nullptr, fetch_aggs), want_fetch);
      EXPECT_EQ(run(exec::kSmaOnlyActions, &smas, aggs),
                testing::ReferenceAggregate(t, *pred, group_by, aggs,
                                            is_qualifying));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BatchAggrEquivalenceP,
    ::testing::Combine(::testing::Values(size_t{1}, size_t{7}, size_t{64},
                                         size_t{1024}),
                       ::testing::Values(size_t{1}, size_t{2}, size_t{4})),
    [](const ::testing::TestParamInfo<AggrParam>& info) {
      return "Bs" + std::to_string(std::get<0>(info.param)) + "Dop" +
             std::to_string(std::get<1>(info.param));
    });

// ------------------------------------------------ session batch knob -----

TEST(DatabaseBatchSizeTest, SetBatchSizeStatementControlsSessionMode) {
  db::Database database;
  ExpectOk(database.CreateTable("t", testing::SyntheticSchema()).status());
  storage::TupleBuffer tuple(&Unwrap(database.GetTable("t"))->schema());
  for (int64_t i = 0; i < 600; ++i) {
    tuple.SetInt64(0, i);
    tuple.SetDate(1, util::Date(static_cast<int32_t>(i / 8)));
    tuple.SetDecimal(2, util::Decimal(i * 3));
    tuple.SetString(3, i % 2 == 0 ? "A" : "B");
    tuple.SetString(4, "MAIL");
    ExpectOk(database.Insert("t", tuple));
  }
  const std::string sql =
      "select grp, count(*), sum(v) from t where d <= '1970-02-10' "
      "group by grp";

  // The default batch size shows in the plan explanation.
  EXPECT_EQ(database.batch_size(), exec::kDefaultBatchSize);
  const plan::QueryResult vectorized = Unwrap(database.Query(sql));
  EXPECT_NE(vectorized.plan.explanation.find("vectorized(batch=1024)"),
            std::string::npos)
      << vectorized.plan.explanation;

  ExpectOk(database.Execute("set batch_size = 64"));
  EXPECT_EQ(database.batch_size(), 64u);
  const plan::QueryResult small = Unwrap(database.Query(sql));
  EXPECT_NE(small.plan.explanation.find("vectorized(batch=64)"),
            std::string::npos)
      << small.plan.explanation;
  EXPECT_EQ(vectorized.ToString(), small.ToString());

  // There is no row mode: 0 (and anything past the cap) is rejected,
  // naming the valid range, at database and at session level.
  for (const char* bad : {"set batch_size = 0", "set batch_size = 65537"}) {
    const util::Status st = database.Execute(bad);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_NE(st.message().find("[1, 65536]"), std::string::npos)
        << st.ToString();
    std::unique_ptr<db::Session> session = database.CreateSession();
    const util::Status sst = session->Execute(bad);
    EXPECT_EQ(sst.code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_NE(sst.message().find("[1, 65536]"), std::string::npos)
        << sst.ToString();
  }
  EXPECT_EQ(database.batch_size(), 64u);
  EXPECT_FALSE(database.Execute("set batch_size = -5").ok());
  EXPECT_FALSE(database.Execute("set batch_size to 8").ok());

  // The planner rejects an out-of-range batch size too.
  plan::PlannerOptions zero;
  zero.batch_size = 0;
  plan::AggQuery query;
  query.table = Unwrap(database.GetTable("t"));
  query.pred = Predicate::True();
  query.aggs = {AggSpec::Count("n")};
  EXPECT_EQ(plan::Planner(nullptr, zero)
                .Build(query, plan::PlanKind::kScanAggr)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

// ------------------------------------------------ faults in batch mode ---

struct VectorFaultTest : ::testing::Test {
  VectorFaultTest() : db(16384) {}
  ~VectorFaultTest() override { util::fault::DisarmAll(); }

  void Setup(const std::string& name) {
    table = MakeSyntheticTable(&db, 4000, Layout::kNoisy, 13, 1, name);
    smas = std::make_unique<sma::SmaSet>(table);
    AddMinMaxSmas(table, smas.get(), "d");
    const expr::ExprPtr v = Unwrap(expr::Column(&table->schema(), "v"));
    ExpectOk(smas->Add(
        Unwrap(sma::BuildSma(table, sma::SmaSpec::Sum("sum_v", v, {3})))));
    ExpectOk(smas->Add(
        Unwrap(sma::BuildSma(table, sma::SmaSpec::Count("cnt", {3})))));
    query.table = table;
    query.pred = Unwrap(Predicate::AtomConst(
        &table->schema(), "d", CmpOp::kLe,
        Value::MakeDate(util::Date(120))));
    query.group_by = {3};
    query.aggs = {AggSpec::Sum(v, "sum_v"), AggSpec::Count("cnt")};
  }

  TestDb db;
  storage::Table* table = nullptr;
  std::unique_ptr<sma::SmaSet> smas;
  plan::AggQuery query;
};

// The fault matrix of fault_test.cc rerun with the vectorized engine at
// several batch sizes: every run returns the fault-free rows exactly or the
// scenario's typed error — never silently-wrong rows.
TEST_F(VectorFaultTest, BatchedRunsReturnExactRowsOrTypedError) {
  Setup("vf");
  plan::Planner ref_planner(smas.get());
  auto ref_op =
      Unwrap(ref_planner.Build(query, plan::PlanKind::kScanAggr, 1));
  const std::string expected =
      Unwrap(plan::RunToCompletion(ref_op.get())).ToString();

  struct Scenario {
    const char* label;
    const char* point;
    util::FaultSpec spec;
    StatusCode allowed;
  };
  const Scenario scenarios[] = {
      {"transient-read", "disk.read",
       {.probability = 0.3, .kind = FaultKind::kTransient},
       StatusCode::kIOError},
      {"permanent-read", "disk.read",
       {.probability = 0.3, .kind = FaultKind::kPermanent},
       StatusCode::kIOError},
      {"bitflip-read", "disk.page_bitflip",
       {.probability = 0.25, .kind = FaultKind::kBitFlip},
       StatusCode::kCorruption},
  };
  const plan::PlanKind kinds[] = {plan::PlanKind::kScanAggr,
                                  plan::PlanKind::kSmaScanAggr,
                                  plan::PlanKind::kSmaGAggr};
  uint64_t seed = 40;
  for (size_t batch_size : {size_t{7}, size_t{1024}}) {
    plan::PlannerOptions options;
    options.batch_size = batch_size;
    plan::Planner planner(smas.get(), options);
    for (const Scenario& s : scenarios) {
      for (plan::PlanKind kind : kinds) {
        for (size_t dop : {size_t{1}, size_t{4}}) {
          SCOPED_TRACE(::testing::Message()
                       << s.label << " / " << plan::PlanKindToString(kind)
                       << " / dop=" << dop << " / batch=" << batch_size);
          util::fault::DisarmAll();
          ExpectOk(db.pool.DropAll());
          util::fault::Seed(seed++);
          util::fault::Arm(s.point, s.spec);
          auto op = Unwrap(planner.Build(query, kind, dop));
          auto run = plan::RunToCompletion(op.get());
          util::fault::DisarmAll();
          if (run.ok()) {
            EXPECT_EQ(run->ToString(), expected);
          } else {
            EXPECT_EQ(run.status().code(), s.allowed)
                << run.status().ToString();
          }
        }
      }
    }
  }
}

// The degradation ladder under the vectorized engine: unreadable SMA-files
// demote the plan, the rerun stays vectorized, and the rows are exact.
TEST_F(VectorFaultTest, DegradationLadderDemotesCorrectlyInBatchMode) {
  Setup("vd");
  plan::Planner planner(smas.get());  // defaults: vectorized
  const plan::QueryResult healthy = Unwrap(planner.Execute(query));
  EXPECT_NE(healthy.plan.explanation.find("vectorized"), std::string::npos);

  ExpectOk(db.pool.DropAll());
  util::fault::Arm("disk.read", {.kind = FaultKind::kPermanent,
                                 .file_filter = "sma."});
  const plan::QueryResult demoted = Unwrap(planner.Execute(query));
  util::fault::DisarmAll();
  EXPECT_EQ(demoted.plan.kind, plan::PlanKind::kScanAggr);
  EXPECT_NE(demoted.plan.explanation.find("demoted"), std::string::npos)
      << demoted.plan.explanation;
  EXPECT_NE(demoted.plan.explanation.find("vectorized"), std::string::npos)
      << demoted.plan.explanation;
  EXPECT_EQ(demoted.ToString(), healthy.ToString());
}

}  // namespace
}  // namespace smadb
