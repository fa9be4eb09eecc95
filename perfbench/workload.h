// The benchmark's workloads and the run that measures one of them.
//
// Every workload loads TPC-H LINEITEM into a db::Database, builds the
// paper's Fig. 4 (Q1) and Q6 SMAs, serves it from an in-process
// net::Server on loopback, and drives it with closed-loop TCP clients: a
// client sends its next statement when the previous reply arrives. Every
// reply is checked against the independent oracle (oracle.h).

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "db/database.h"
#include "net/server.h"
#include "oracle.h"
#include "tpch/loader.h"

namespace perfbench {

struct WorkloadSpec {
  const char* name;
  double scale_factor;
  smadb::tpch::ClusterMode cluster;
  size_t pool_pages;  ///< buffer-pool frames of 4 KiB
  bool file_backend;  ///< file backend in a temporary directory, else simulated
  int readers;        ///< TCP reader connections
  bool writer;        ///< an in-process Session appends beside the readers
  std::vector<QueryKind> pattern;  ///< each reader's statement kinds, cycled
};

/// The named workload, or null.
const WorkloadSpec* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

/// Shipdates at or after this day form the "recent window"; rows the
/// writer appends all ship later than any generated row.
int32_t WindowFromDays();

/// Deterministic statement stream of one reader. Parameters come from the
/// seed: Q1 delta in [60, 120] days; Q6 year 1993..1997, discount
/// 0.02..0.09, quantity 24..25. Each kind walks a seeded permutation of all
/// its parameter values, so every run sends each value equally often and
/// the mix of plans does not drift with the seed.
class QueryStream {
 public:
  QueryStream(uint64_t seed, std::vector<QueryKind> pattern);
  Query Next();

 private:
  std::vector<QueryKind> pattern_;
  std::vector<int> q1_deltas_;
  std::vector<std::tuple<int, int, int>> q6_params_;  // year, discount, qty
  size_t pos_ = 0;
  size_t q1_pos_ = 0;
  size_t q6_pos_ = 0;
};

/// One loaded, SMA-indexed, served database.
struct Instance {
  Instance() = default;
  ~Instance();
  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;

  std::string dir;  ///< file backend only; removed at destruction
  std::unique_ptr<smadb::db::Database> db;
  std::unique_ptr<smadb::net::Server> server;
  smadb::storage::Table* table = nullptr;
  smadb::sma::SmaSet* smas = nullptr;
};

/// What a set-up produced besides the instance: the oracle's copy of the
/// rows and a sample the writer derives appended rows from.
struct DataSet {
  std::vector<OracleRow> rows;
  std::vector<smadb::tpch::LineItemRow> sample;
  int64_t max_orderkey = 0;
};

struct SetupTimes {
  double tpch_s = 0.0;   ///< dbgen + LoadLineItem
  double sma_s = 0.0;    ///< BuildQ1Smas + BuildQ6Smas
  double total_s = 0.0;  ///< everything until the warmed server is ready
};

/// Generates, loads, builds SMAs, checkpoints (file backend), starts the
/// server and warms it. `data` (optional) receives the oracle's rows;
/// copying them is not counted in `times`.
smadb::util::Status LoadAndServe(const WorkloadSpec& spec, uint64_t seed,
                                 const std::string& dir, Instance* inst,
                                 SetupTimes* times, DataSet* data);

struct RunConfig {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  ///< data directories and the span dump go here
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::string first_error;
};

/// Runs one workload: end-to-end metrics untraced, per-layer metrics when
/// `trace` is set.
Outcome Run(const RunConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
