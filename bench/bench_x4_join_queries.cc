// Experiment X4 — SMAs inside join pipelines (the flexibility argument of
// §2.3 taken to multi-table queries): TPC-D Q3 (3-way join + grouping) and
// Q4 (EXISTS as the §4 semi-join), each with and without selection SMAs on
// the date-restricted leaves. Self-checking: the with-SMA and without-SMA
// plans of each query must return identical rows, else the run exits 1.
// Q3/Q4 are the bench paths through HashJoin, Sort and SmaSemiJoin.
//
// Usage: bench_x4_join_queries [scale_factor | --smoke]  (--smoke = SF 0.01)

#include <cstring>

#include "bench/bench_util.h"
#include "planner/planner.h"
#include "tpch/loader.h"
#include "workloads/q3.h"

using namespace smadb;  // NOLINT
using bench::Check;

int main(int argc, char** argv) {
  bench::JsonReporter report(argv[0]);
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const double sf = smoke ? 0.01 : bench::ScaleFromArgs(argc, argv, 0.05);
  bench::BenchDb db(262144);

  bench::PrintHeader(util::Format(
      "X4: SMA pruning inside join pipelines (Q3, Q4), SF %.3f%s", sf,
      smoke ? " (smoke)" : ""));

  tpch::Dbgen gen({sf, 19980401});
  std::vector<tpch::OrderRow> orows;
  std::vector<tpch::LineItemRow> lrows;
  gen.GenOrdersAndLineItems(&orows, &lrows);
  tpch::LoadOptions load;
  load.mode = tpch::ClusterMode::kDiagonal;
  load.lag_stddev_days = 10.0;
  storage::Table* orders = Check(tpch::LoadOrders(&db.catalog, orows, load));
  storage::Table* lineitem =
      Check(tpch::LoadLineItem(&db.catalog, lrows, load));
  storage::Table* customer =
      Check(tpch::LoadCustomers(&db.catalog, gen.GenCustomers()));

  sma::SmaSet orders_smas(orders);
  sma::SmaSet lineitem_smas(lineitem);
  Check(workloads::BuildQ3Smas(orders, &orders_smas, lineitem,
                               &lineitem_smas));

  struct Row {
    const char* name;
    double with_s, without_s;
    uint64_t with_reads, without_reads;
    size_t result_rows;
    bool identical;
  };
  std::vector<Row> rows;

  struct Run {
    double seconds;
    uint64_t reads;
    size_t rows;
    std::string result;
  };
  auto measure = [&](auto&& make_plan) {
    Check(db.pool.DropAll());
    db.disk.ResetAccessPositions();
    const storage::IoStats base = db.disk.stats();
    auto plan = Check(make_plan());
    const plan::QueryResult result = Check(plan::RunToCompletion(plan.get()));
    const storage::IoStats used = db.disk.stats() - base;
    return Run{used.ModeledSeconds(db.model), used.page_reads,
               result.rows.size(), result.ToString()};
  };
  auto add_row = [&](const char* name, const Run& with, const Run& without) {
    rows.push_back({name, with.seconds, without.seconds, with.reads,
                    without.reads, with.rows, with.result == without.result});
  };

  // Q3.
  {
    workloads::Q3Tables with{customer, orders, lineitem, &orders_smas,
                             &lineitem_smas};
    workloads::Q3Tables without{customer, orders, lineitem, nullptr,
                                nullptr};
    add_row("Q3 (3-way join)",
            measure([&] { return workloads::MakeQ3Plan(with); }),
            measure([&] { return workloads::MakeQ3Plan(without); }));
  }
  // Q4.
  add_row("Q4 (EXISTS semi-join)", measure([&] {
            return workloads::MakeQ4Plan(orders, lineitem, &orders_smas);
          }),
          measure([&] {
            return workloads::MakeQ4Plan(orders, lineitem, nullptr);
          }));

  std::printf("\n%-24s %14s %14s %10s\n", "query", "with SMAs",
              "without SMAs", "saving");
  bool all_identical = true;
  for (const Row& r : rows) {
    std::printf("%-24s %12.2fs  %12.2fs  %8.1fx   (%llu vs %llu pages)  "
                "%zu rows, %s\n",
                r.name, r.with_s, r.without_s,
                r.without_s / std::max(1e-9, r.with_s),
                static_cast<unsigned long long>(r.with_reads),
                static_cast<unsigned long long>(r.without_reads),
                r.result_rows, r.identical ? "identical" : "MISMATCH");
    all_identical = all_identical && r.identical;
  }
  if (!all_identical) {
    std::fprintf(stderr,
                 "X4: with-SMA and without-SMA plans returned different "
                 "rows\n");
    return 1;
  }

  bench::PrintPaperNote(
      "SMAs keep paying inside join pipelines: Q3's date-restricted ORDERS "
      "and LINEITEM leaves and Q4's date-graded semi-join skip the "
      "disqualified buckets of the fact tables, which dominate the join "
      "input cost — the versatility §2.3 claims over the data cube");
  return 0;
}
