// Experiment X1 — paper §4 bucket-size trade-off:
//
//   "If the bucket size is small, then the SMA-files will become very large
//    and more I/O for SMAs is the consequence. If the bucket sizes are
//    large, then — due to imperfect clustering — many ambivalent buckets
//    occur and for these the original relation must be accessed."
//
// Sweep bucket size (pages per bucket) x clustering quality and report the
// total modeled I/O of a Q6-style range aggregation: SMA-file pages +
// fetched bucket pages. The optimum moves with clustering quality.

#include "bench/bench_util.h"
#include "exec/sma_scan.h"
#include "planner/planner.h"
#include "sma/builder.h"
#include "sma/grade.h"
#include "tpch/loader.h"

using namespace smadb;  // NOLINT
using bench::Check;

int main(int argc, char** argv) {
  bench::JsonReporter report(argv[0]);
  const double sf = bench::ScaleFromArgs(argc, argv, 0.05);

  bench::PrintHeader(util::Format(
      "X1: bucket-size trade-off (paper §4), SF %.3f", sf));

  tpch::Dbgen gen({sf, 19980401});
  std::vector<tpch::OrderRow> orders;
  std::vector<tpch::LineItemRow> lineitems;
  gen.GenOrdersAndLineItems(&orders, &lineitems);

  const util::Date lo = util::Date::FromYmd(1995, 1, 1);
  const util::Date hi = util::Date::FromYmd(1995, 7, 1);
  std::printf("predicate: l_shipdate in [%s, %s)\n\n", lo.ToString().c_str(),
              hi.ToString().c_str());

  for (double lag : {5.0, 30.0, 90.0}) {
    std::printf("clustering: diagonal with %g-day entry lag\n", lag);
    std::printf("  %-14s %10s %12s %12s %14s\n", "bucket_pages", "sma_pages",
                "fetch_pages", "total_pages", "modeled time");
    double best_time = 1e100;
    uint32_t best_bp = 0;
    for (uint32_t bp : {1u, 2u, 4u, 8u, 16u, 32u, 64u}) {
      bench::BenchDb db(262144);
      tpch::LoadOptions load;
      load.mode = tpch::ClusterMode::kDiagonal;
      load.lag_stddev_days = lag;
      load.bucket_pages = bp;
      storage::Table* t =
          Check(tpch::LoadLineItem(&db.catalog, lineitems, load, "li"));
      sma::SmaSet smas(t);
      const expr::ExprPtr shipdate =
          Check(expr::Column(&t->schema(), "l_shipdate"));
      Check(smas.Add(
          Check(sma::BuildSma(t, sma::SmaSpec::Min("min", shipdate)))));
      Check(smas.Add(
          Check(sma::BuildSma(t, sma::SmaSpec::Max("max", shipdate)))));

      expr::PredicatePtr pred = expr::Predicate::And(
          Check(expr::Predicate::AtomConst(&t->schema(), "l_shipdate",
                                           expr::CmpOp::kGe,
                                           util::Value::MakeDate(lo))),
          Check(expr::Predicate::AtomConst(&t->schema(), "l_shipdate",
                                           expr::CmpOp::kLt,
                                           util::Value::MakeDate(hi))));

      // Run the SMA-pruned scan cold and measure real modeled I/O.
      Check(db.pool.DropAll());
      const storage::IoStats base = db.disk.stats();
      exec::SmaScan scan(t, pred, &smas);
      (void)Check(plan::RunToCompletion(&scan));
      const storage::IoStats used = db.disk.stats() - base;
      const double modeled = used.ModeledSeconds(db.model);
      const uint64_t sma_pages = smas.TotalPages();
      const uint64_t fetch_pages = used.page_reads - sma_pages;
      std::printf("  %-14u %10llu %12llu %12llu %12.2fs\n", bp,
                  static_cast<unsigned long long>(sma_pages),
                  static_cast<unsigned long long>(fetch_pages),
                  static_cast<unsigned long long>(used.page_reads), modeled);
      if (modeled < best_time) {
        best_time = modeled;
        best_bp = bp;
      }
    }
    std::printf("  -> best bucket size at this clustering: %u page(s)\n\n",
                best_bp);
  }

  bench::PrintPaperNote(
      "shape holds: small buckets pay SMA-file I/O, large buckets pay "
      "ambivalent-bucket I/O; the optimum grows as clustering degrades, "
      "which is exactly the trade-off §4 describes (and why it suggests "
      "hierarchical SMAs instead of ever-larger buckets)");
  return 0;
}
