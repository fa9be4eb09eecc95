// TPC-D Query 3 end to end: a 3-way join with grouping, where the
// date-restricted ORDERS and LINEITEM scans are SMA-pruned — SMAs keep
// helping inside join pipelines ("they are much more flexible than data
// cubes", paper §2.3).
//
// Usage: tpcd_q3 [scale_factor]   (default 0.02)

#include <cstdio>
#include <cstdlib>

#include "planner/planner.h"
#include "storage/catalog.h"
#include "tpch/loader.h"
#include "util/stopwatch.h"
#include "workloads/q3.h"

using namespace smadb;  // NOLINT: example brevity

namespace {

void Check(const util::Status& s) {
  if (!s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    std::exit(1);
  }
}

template <typename T>
T Check(util::Result<T> r) {
  Check(r.status());
  return std::move(r).value();
}

}  // namespace

int main(int argc, char** argv) {
  const double sf = argc > 1 ? std::atof(argv[1]) : 0.02;

  storage::SimulatedDisk disk;
  storage::BufferPool pool(&disk, 65536);
  storage::Catalog catalog(&pool);

  std::printf("generating TPC-D tables at SF %.3f ...\n", sf);
  tpch::Dbgen gen({sf, 19980401});
  std::vector<tpch::OrderRow> orders_rows;
  std::vector<tpch::LineItemRow> lineitem_rows;
  gen.GenOrdersAndLineItems(&orders_rows, &lineitem_rows);

  // Orders and lineitems arrive in (roughly) date order in a warehouse —
  // load both under diagonal clustering so SMAs have something to exploit.
  tpch::LoadOptions load;
  load.mode = tpch::ClusterMode::kDiagonal;
  load.lag_stddev_days = 10.0;
  storage::Table* orders =
      Check(tpch::LoadOrders(&catalog, orders_rows, load));
  storage::Table* lineitem =
      Check(tpch::LoadLineItem(&catalog, lineitem_rows, load));
  storage::Table* customer =
      Check(tpch::LoadCustomers(&catalog, gen.GenCustomers()));
  std::printf("  customer %llu, orders %llu, lineitem %llu tuples\n",
              static_cast<unsigned long long>(customer->num_tuples()),
              static_cast<unsigned long long>(orders->num_tuples()),
              static_cast<unsigned long long>(lineitem->num_tuples()));

  sma::SmaSet orders_smas(orders);
  sma::SmaSet lineitem_smas(lineitem);
  Check(workloads::BuildQ3Smas(orders, &orders_smas, lineitem,
                               &lineitem_smas));

  workloads::Q3Tables with_smas{customer, orders, lineitem, &orders_smas,
                                &lineitem_smas};
  workloads::Q3Tables without_smas{customer, orders, lineitem, nullptr,
                                   nullptr};

  // Without SMAs.
  Check(pool.DropAll());
  disk.ResetStats();
  util::Stopwatch w1;
  auto plain = Check(workloads::MakeQ3Plan(without_smas));
  const plan::QueryResult plain_result =
      Check(plan::RunToCompletion(plain.get()));
  const std::string result_plain = plain_result.ToString();
  const double t_plain = w1.ElapsedSeconds();
  const uint64_t reads_plain = disk.stats().page_reads;

  // With SMAs.
  Check(pool.DropAll());
  disk.ResetStats();
  util::Stopwatch w2;
  auto pruned = Check(workloads::MakeQ3Plan(with_smas));
  const std::string result_pruned =
      Check(plan::RunToCompletion(pruned.get())).ToString();
  const double t_pruned = w2.ElapsedSeconds();
  const uint64_t reads_pruned = disk.stats().page_reads;

  if (result_plain != result_pruned) {
    std::fprintf(stderr, "RESULT MISMATCH!\n%s\nvs\n%s\n",
                 result_plain.c_str(), result_pruned.c_str());
    return 1;
  }

  std::printf("\nQ3 top-%zu:\n%s", plain_result.rows.size(),
              result_plain.c_str());
  std::printf("\nplain scans : %.3fs, %llu page reads\n", t_plain,
              static_cast<unsigned long long>(reads_plain));
  std::printf("SMA-pruned  : %.3fs, %llu page reads (%.1fx fewer)\n",
              t_pruned, static_cast<unsigned long long>(reads_pruned),
              static_cast<double>(reads_plain) /
                  static_cast<double>(std::max<uint64_t>(1, reads_pruned)));
  return 0;
}
