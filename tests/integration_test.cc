// End-to-end integration: TPC-D Query 1 and Query 6 across clusterings and
// plans, the Fig. 4 SMA complement, and maintained mutation consistency.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <tuple>
#include <unordered_map>
#include <unordered_set>

#include "planner/planner.h"
#include "sma/maintenance.h"
#include "tests/test_util.h"
#include "tpch/loader.h"
#include "workloads/q1.h"
#include "workloads/q3.h"

namespace smadb {
namespace {

using plan::AggQuery;
using plan::Planner;
using plan::PlanKind;
using plan::QueryResult;
using plan::RunToCompletion;
using testing::ExpectOk;
using testing::TestDb;
using testing::Unwrap;

// One Q3 answer row: l_orderkey, o_orderdate (days), o_shippriority,
// revenue (cents).
using Q3Row = std::tuple<int64_t, int64_t, int64_t, int64_t>;

// Brute-force TPC-D Q3 over the generator's rows, sharing no code with the
// engine's operators: plain hash maps for both joins and the grouping,
// then sort (revenue desc, o_orderdate, l_orderkey) and limit.
std::vector<Q3Row> ReferenceQ3(const std::vector<tpch::CustomerRow>& customers,
                               const std::vector<tpch::OrderRow>& orders,
                               const std::vector<tpch::LineItemRow>& lineitems,
                               const std::string& segment,
                               util::Date cutoff, size_t limit) {
  std::unordered_set<int64_t> custkeys;
  for (const auto& c : customers) {
    if (c.mktsegment == segment) custkeys.insert(c.custkey);
  }
  std::unordered_map<int64_t, const tpch::OrderRow*> qualifying;
  for (const auto& o : orders) {
    if (o.orderdate < cutoff && custkeys.count(o.custkey) > 0) {
      qualifying[o.orderkey] = &o;
    }
  }
  std::unordered_map<int64_t, int64_t> revenue;
  for (const auto& l : lineitems) {
    if (l.shipdate > cutoff && qualifying.count(l.orderkey) > 0) {
      revenue[l.orderkey] +=
          (l.extendedprice * (util::Decimal(100) - l.discount)).cents();
    }
  }
  std::vector<Q3Row> rows;
  for (const auto& [orderkey, cents] : revenue) {
    const tpch::OrderRow* o = qualifying.at(orderkey);
    rows.emplace_back(orderkey, o->orderdate.days(), o->shippriority, cents);
  }
  std::sort(rows.begin(), rows.end(), [](const Q3Row& a, const Q3Row& b) {
    const auto& [a_key, a_date, a_prio, a_rev] = a;
    const auto& [b_key, b_date, b_prio, b_rev] = b;
    return std::tie(b_rev, a_date, a_key) < std::tie(a_rev, b_date, b_key);
  });
  if (rows.size() > limit) rows.resize(limit);
  return rows;
}

// The engine's Q3 answer in the ReferenceQ3 form.
std::vector<Q3Row> RunQ3(exec::Operator* op) {
  const QueryResult result = Unwrap(RunToCompletion(op));
  std::vector<Q3Row> rows;
  for (const storage::TupleBuffer& buf : result.rows) {
    const storage::TupleRef t = buf.AsRef();
    rows.emplace_back(t.GetRawInt(0), t.GetRawInt(1), t.GetRawInt(2),
                      t.GetRawInt(3));
  }
  return rows;
}

struct Q1Integration : ::testing::Test {
  Q1Integration() : db(32768) {}

  storage::Table* Load(tpch::ClusterMode mode, const std::string& name) {
    tpch::LoadOptions load;
    load.mode = mode;
    return Unwrap(tpch::GenerateAndLoadLineItem(&db.catalog, {0.004, 42},
                                                load, nullptr, name));
  }

  std::string Run(sma::SmaSet* smas, const AggQuery& q, PlanKind kind) {
    Planner planner(smas);
    auto op = Unwrap(planner.Build(q, kind));
    return Unwrap(RunToCompletion(op.get())).ToString();
  }

  TestDb db;
};

TEST_F(Q1Integration, Fig4SmaComplementHas26Files) {
  storage::Table* t = Load(tpch::ClusterMode::kShipdateSorted, "li");
  sma::SmaSet smas(t);
  ExpectOk(workloads::BuildQ1Smas(t, &smas));
  EXPECT_EQ(smas.size(), 8u);  // 8 SMA definitions (Fig. 4)
  uint64_t files = 0;
  for (const sma::Sma* s : smas.all()) files += s->num_groups();
  EXPECT_EQ(files, 26u);  // 2 ungrouped + 6 grouped x 4 groups (§2.3)
  // Space: SMAs are a small fraction of the base data even at tiny scale.
  EXPECT_LT(smas.TotalSizeBytes(), t->SizeBytes() / 5);
}

TEST_F(Q1Integration, AllPlansAgreeOnAllClusterings) {
  int i = 0;
  for (tpch::ClusterMode mode :
       {tpch::ClusterMode::kShipdateSorted, tpch::ClusterMode::kDiagonal,
        tpch::ClusterMode::kOrderKey}) {
    storage::Table* t = Load(mode, "li" + std::to_string(i++));
    sma::SmaSet smas(t);
    ExpectOk(workloads::BuildQ1Smas(t, &smas));
    const AggQuery q1 = Unwrap(workloads::MakeQ1Query(t, 90));
    const std::string scan = Run(&smas, q1, PlanKind::kScanAggr);
    EXPECT_EQ(scan, Run(&smas, q1, PlanKind::kSmaScanAggr));
    EXPECT_EQ(scan, Run(&smas, q1, PlanKind::kSmaGAggr));
    EXPECT_NE(scan.find("A | F"), std::string::npos);
    EXPECT_NE(scan.find("N | O"), std::string::npos);
  }
}

TEST_F(Q1Integration, DeltaSweepAgreesAndShrinks) {
  storage::Table* t = Load(tpch::ClusterMode::kShipdateSorted, "li_delta");
  sma::SmaSet smas(t);
  ExpectOk(workloads::BuildQ1Smas(t, &smas));
  int64_t prev_count = INT64_MAX;
  for (int delta : {60, 90, 400, 1200}) {
    const AggQuery q1 = Unwrap(workloads::MakeQ1Query(t, delta));
    const std::string scan = Run(&smas, q1, PlanKind::kScanAggr);
    EXPECT_EQ(scan, Run(&smas, q1, PlanKind::kSmaGAggr)) << delta;
    // Larger delta = earlier cutoff = fewer qualifying rows.
    Planner planner(&smas);
    auto op = Unwrap(planner.Build(q1, PlanKind::kScanAggr));
    QueryResult r = Unwrap(RunToCompletion(op.get()));
    int64_t total = 0;
    const size_t count_col = r.schema->num_fields() - 1;
    for (const auto& row : r.rows) {
      total += row.AsRef().GetInt64(count_col);
    }
    EXPECT_LE(total, prev_count);
    prev_count = total;
  }
}

TEST_F(Q1Integration, PlannerPicksSmaGAggrForQ1) {
  storage::Table* t = Load(tpch::ClusterMode::kShipdateSorted, "li_plan");
  sma::SmaSet smas(t);
  ExpectOk(workloads::BuildQ1Smas(t, &smas));
  Planner planner(&smas);
  const AggQuery q1 = Unwrap(workloads::MakeQ1Query(t, 90));
  EXPECT_EQ(Unwrap(planner.Choose(q1)).kind, PlanKind::kSmaGAggr);
}

TEST_F(Q1Integration, Q6AgreesAcrossPlansAndPrunes) {
  storage::Table* t = Load(tpch::ClusterMode::kShipdateSorted, "li_q6");
  sma::SmaSet smas(t);
  ExpectOk(workloads::BuildQ1Smas(t, &smas));
  ExpectOk(workloads::BuildQ6Smas(t, &smas));
  const AggQuery q6 = Unwrap(workloads::MakeQ6Query(t, 1994, 6, 24));
  const std::string scan = Run(&smas, q6, PlanKind::kScanAggr);
  EXPECT_EQ(scan, Run(&smas, q6, PlanKind::kSmaScanAggr));
  EXPECT_EQ(scan, Run(&smas, q6, PlanKind::kSmaGAggr));

  // Q6's one-year range on sorted data prunes ~6/7 of the buckets.
  Planner planner(&smas);
  const plan::PlanChoice choice = Unwrap(planner.Choose(q6));
  EXPECT_GT(choice.disqualifying, choice.total_buckets() / 2);
}

TEST_F(Q1Integration, MaintainedInsertsKeepQ1Consistent) {
  storage::Table* t = Load(tpch::ClusterMode::kShipdateSorted, "li_maint");
  sma::SmaSet smas(t);
  ExpectOk(workloads::BuildQ1Smas(t, &smas));
  sma::SmaMaintainer maintainer(t, &smas);

  // Append a fresh batch of lineitems through the maintainer.
  tpch::Dbgen gen({0.0005, 1234});
  std::vector<tpch::OrderRow> orders;
  std::vector<tpch::LineItemRow> lis;
  gen.GenOrdersAndLineItems(&orders, &lis);
  for (const auto& row : lis) {
    ExpectOk(
        maintainer.Insert(tpch::LineItemTuple(&t->schema(), row)));
  }

  const AggQuery q1 = Unwrap(workloads::MakeQ1Query(t, 90));
  const std::string scan = Run(&smas, q1, PlanKind::kScanAggr);
  EXPECT_EQ(scan, Run(&smas, q1, PlanKind::kSmaGAggr));
}

TEST_F(Q1Integration, Q3JoinPipelineAgreesWithAndWithoutSmas) {
  tpch::Dbgen gen({0.004, 42});
  std::vector<tpch::OrderRow> orows;
  std::vector<tpch::LineItemRow> lrows;
  gen.GenOrdersAndLineItems(&orows, &lrows);
  tpch::LoadOptions load;
  load.mode = tpch::ClusterMode::kDiagonal;
  storage::Table* orders = Unwrap(tpch::LoadOrders(&db.catalog, orows, load));
  storage::Table* lineitem =
      Unwrap(tpch::LoadLineItem(&db.catalog, lrows, load));
  const std::vector<tpch::CustomerRow> crows = gen.GenCustomers();
  storage::Table* customer = Unwrap(tpch::LoadCustomers(&db.catalog, crows));

  sma::SmaSet orders_smas(orders);
  sma::SmaSet lineitem_smas(lineitem);
  ExpectOk(workloads::BuildQ3Smas(orders, &orders_smas, lineitem,
                                  &lineitem_smas));

  auto drain = [](exec::Operator* op) {
    return Unwrap(RunToCompletion(op)).ToString();
  };

  workloads::Q3Tables with{customer, orders, lineitem, &orders_smas,
                           &lineitem_smas};
  workloads::Q3Tables without{customer, orders, lineitem, nullptr, nullptr};
  auto plan_with = Unwrap(workloads::MakeQ3Plan(with));
  auto plan_without = Unwrap(workloads::MakeQ3Plan(without));
  const std::string a = drain(plan_with.get());
  EXPECT_EQ(a, drain(plan_without.get()));
  EXPECT_FALSE(a.empty());

  // A different segment / cutoff also agrees.
  auto plan_auto = Unwrap(
      workloads::MakeQ3Plan(with, "MACHINERY", "1996-06-01", 5));
  auto plan_auto_ref = Unwrap(
      workloads::MakeQ3Plan(without, "MACHINERY", "1996-06-01", 5));
  EXPECT_EQ(drain(plan_auto.get()), drain(plan_auto_ref.get()));

  // Both plans equal the brute-force answer.
  const auto want = ReferenceQ3(crows, orows, lrows, "BUILDING",
                                util::Date::FromYmd(1995, 3, 15), 10);
  EXPECT_EQ(want.size(), 10u);
  EXPECT_EQ(RunQ3(plan_with.get()), want);
  EXPECT_EQ(RunQ3(plan_without.get()), want);
  const auto want_auto = ReferenceQ3(crows, orows, lrows, "MACHINERY",
                                     util::Date::FromYmd(1996, 6, 1), 5);
  EXPECT_EQ(RunQ3(plan_auto.get()), want_auto);
  EXPECT_EQ(RunQ3(plan_auto_ref.get()), want_auto);
}

TEST_F(Q1Integration, Q4ExistsSemiJoinMatchesBruteForce) {
  tpch::Dbgen gen({0.004, 42});
  std::vector<tpch::OrderRow> orows;
  std::vector<tpch::LineItemRow> lrows;
  gen.GenOrdersAndLineItems(&orows, &lrows);
  tpch::LoadOptions load;
  load.mode = tpch::ClusterMode::kDiagonal;
  storage::Table* orders = Unwrap(tpch::LoadOrders(&db.catalog, orows, load));
  storage::Table* lineitem =
      Unwrap(tpch::LoadLineItem(&db.catalog, lrows, load));
  sma::SmaSet orders_smas(orders);
  sma::SmaSet lineitem_smas(lineitem);
  ExpectOk(workloads::BuildQ3Smas(orders, &orders_smas, lineitem,
                                  &lineitem_smas));

  auto plan = Unwrap(
      workloads::MakeQ4Plan(orders, lineitem, &orders_smas, "1993-07-01"));
  const QueryResult result = Unwrap(RunToCompletion(plan.get()));
  std::map<std::string, int64_t> got;
  for (const storage::TupleBuffer& buf : result.rows) {
    const storage::TupleRef row = buf.AsRef();
    got[std::string(row.GetString(0))] = row.GetInt64(1);
  }

  // Brute force.
  const util::Date lo = util::Date::FromYmd(1993, 7, 1);
  const util::Date hi = lo.AddDays(91);
  std::set<int64_t> late_orders;  // orderkeys with commit < receipt
  for (const auto& li : lrows) {
    if (li.commitdate < li.receiptdate) late_orders.insert(li.orderkey);
  }
  std::map<std::string, int64_t> want;
  for (const auto& o : orows) {
    if (o.orderdate >= lo && o.orderdate < hi &&
        late_orders.count(o.orderkey) > 0) {
      ++want[o.orderpriority];
    }
  }
  EXPECT_EQ(got, want);
  EXPECT_EQ(got.size(), 5u);  // all five priorities occur at this scale
}

TEST_F(Q1Integration, ColdVsWarmPageReads) {
  storage::Table* t = Load(tpch::ClusterMode::kShipdateSorted, "li_cold");
  sma::SmaSet smas(t);
  ExpectOk(workloads::BuildQ1Smas(t, &smas));
  const AggQuery q1 = Unwrap(workloads::MakeQ1Query(t, 90));
  Planner planner(&smas);

  // Cold: everything faulted from disk.
  ExpectOk(db.pool.DropAll());
  db.disk.ResetStats();
  auto op = Unwrap(planner.Build(q1, PlanKind::kSmaGAggr));
  (void)Unwrap(RunToCompletion(op.get()));
  const uint64_t cold_reads = db.disk.stats().page_reads;

  // Warm: SMA files resident from the cold run.
  db.disk.ResetStats();
  auto op2 = Unwrap(planner.Build(q1, PlanKind::kSmaGAggr));
  (void)Unwrap(RunToCompletion(op2.get()));
  const uint64_t warm_reads = db.disk.stats().page_reads;

  EXPECT_GT(cold_reads, 0u);
  EXPECT_LT(warm_reads, cold_reads / 2);  // paper: 4.9 s cold vs 1.9 s warm
  // And both are tiny next to the table itself.
  EXPECT_LT(cold_reads, t->num_pages() / 4);
}

}  // namespace
}  // namespace smadb
