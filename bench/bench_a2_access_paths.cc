// Ablation A2 — access-path crossover: SMA scan vs projection index vs
// B+-tree vs full scan across the selectivity axis.
//
// The paper's introduction argues that traditional indexes collapse beyond
// ~10% selectivity ("the only effect of using an index is to turn
// sequential I/O into random I/O") while SMAs keep working where indexes
// fail AND where scans waste work. This bench measures all four paths on
// the same count(*) range query and charts the modeled-disk seconds.

#include "baseline/bptree.h"
#include "baseline/projection_index.h"
#include "bench/bench_util.h"
#include "exec/sma_scan.h"
#include "planner/planner.h"
#include "sma/builder.h"
#include "tpch/loader.h"
#include "tpch/schemas.h"

using namespace smadb;  // NOLINT
using bench::Check;

int main(int argc, char** argv) {
  bench::JsonReporter report(argv[0]);
  const double sf = bench::ScaleFromArgs(argc, argv, 0.05);
  bench::BenchDb db(262144);

  bench::PrintHeader(util::Format(
      "A2: access-path comparison across selectivity, SF %.3f", sf));

  tpch::LoadOptions load;
  load.mode = tpch::ClusterMode::kDiagonal;
  load.lag_stddev_days = 10.0;
  storage::Table* t = Check(
      tpch::GenerateAndLoadLineItem(&db.catalog, {sf, 19980401}, load));
  const size_t col = tpch::lineitem::kShipDate;

  sma::SmaSet smas(t);
  const expr::ExprPtr shipdate =
      Check(expr::Column(&t->schema(), "l_shipdate"));
  Check(smas.Add(Check(sma::BuildSma(t, sma::SmaSpec::Min("min", shipdate)))));
  Check(smas.Add(Check(sma::BuildSma(t, sma::SmaSpec::Max("max", shipdate)))));
  auto proj = Check(baseline::ProjectionIndex::Build(t, col));
  auto tree = Check(baseline::BPlusTree::BuildForColumn(t, col, "shipdate"));

  std::printf("LINEITEM %u pages; SMA %llup, projection %up, B+-tree %up\n",
              t->num_pages(),
              static_cast<unsigned long long>(smas.TotalPages()),
              proj->num_pages(), tree->num_pages());

  std::printf("\ncount(*) where l_shipdate <= c  —  modeled disk seconds:\n");
  std::printf("%12s %8s %10s %10s %12s %10s\n", "cutoff", "sel%",
              "full scan", "SMA scan", "projection", "B+-tree");

  const util::Date start = util::Date::FromYmd(1992, 1, 1);
  for (int pct : {0, 1, 5, 10, 25, 50, 75, 100}) {
    const util::Date c = start.AddDays(pct * 2556 / 100);
    const expr::PredicatePtr pred = Check(expr::Predicate::AtomConst(
        &t->schema(), "l_shipdate", expr::CmpOp::kLe,
        util::Value::MakeDate(c)));

    // Full scan.
    Check(db.pool.DropAll());
    storage::IoStats base = db.disk.stats();
    uint64_t count_scan = 0;
    for (uint32_t b = 0; b < t->num_buckets(); ++b) {
      Check(t->ForEachTupleInBucket(
          b, [&](const storage::TupleRef& tup, storage::Rid) {
            count_scan += pred->Eval(tup);
          }));
    }
    const double scan_s = db.ModeledSeconds(base);

    // SMA scan.
    Check(db.pool.DropAll());
    base = db.disk.stats();
    uint64_t count_sma = 0;
    {
      exec::SmaScan scan(t, pred, &smas);
      count_sma = Check(plan::RunToCompletion(&scan)).rows.size();
    }
    const double sma_s = db.ModeledSeconds(base);

    // Projection index (scan the narrow value file).
    Check(db.pool.DropAll());
    base = db.disk.stats();
    const uint64_t count_proj =
        Check(proj->CountMatching(expr::CmpOp::kLe, c.days()));
    const double proj_s = db.ModeledSeconds(base);

    // B+-tree: count via leaf-range walk, then *fetch* each qualifying
    // tuple (the non-clustered index plan a real system would run when the
    // query needs more than the key).
    Check(db.pool.DropAll());
    base = db.disk.stats();
    const auto rids = Check(tree->RangeLookup(INT64_MIN + 1, c.days()));
    for (const storage::Rid rid : rids) {
      auto guard = Check(t->FetchPage(rid.page_no));
    }
    const double tree_s = db.ModeledSeconds(base);

    if (count_scan != count_sma || count_scan != count_proj ||
        count_scan != rids.size()) {
      std::fprintf(stderr, "COUNT MISMATCH at %d%%\n", pct);
      return 1;
    }
    std::printf("%12s %7d%% %9.2fs %9.2fs %11.2fs %9.2fs\n",
                c.ToString().c_str(), pct, scan_s, sma_s, proj_s, tree_s);
  }

  bench::PrintPaperNote(
      "shape holds: the B+-tree wins only at near-zero selectivity and "
      "collapses once a noticeable fraction qualifies; the projection "
      "index is flat but always pays its full (narrow) scan; the SMA scan "
      "tracks the best of both — near-zero cost at low selectivity, "
      "scan-like cost at high selectivity — which is the paper's core "
      "positioning of SMAs between scans and traditional indexes");
  return 0;
}
