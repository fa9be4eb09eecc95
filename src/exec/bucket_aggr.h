// BucketAggr: grouping-aggregation over a base table, one bucket at a time
// (paper §3.3, Fig. 7, with §3.2's SMA_Scan folded in).
//
// Every base-table aggregate plan walks the same loop: grade a bucket
// against the selection SMAs, then do one thing with it — answer from the
// aggregate SMAs, fetch its rows, fetch and filter them, or skip it. Which
// thing is a per-grade policy (BucketActions) that the plan kind picks;
// the loop, the per-worker state, the census and the group table are
// shared by all of them.
//
// Matching rules for answering from SMAs: an aggregate SMA serves a query
// aggregate when function and argument expression match and the SMA's
// grouping *refines* the query's (query group-by columns ⊆ SMA group-by
// columns; SMA groups are projected onto query groups, cf. §2.3 "a SMA has
// to reflect the grouping of the query or a finer grouping"). A count(*)
// SMA with compatible grouping is always required: it carries group
// cardinalities (for count and avg results) and decides which groups have
// qualifying tuples at all. Averages are finalized as sum/count in the
// last phase.
//
// Buckets are morsels: ThreadPool::ParallelFor hands them to up to
// degree_of_parallelism workers (inline on the caller at 1). Each worker
// grades through its own cursors and aggregates into a private group
// table; the tables are merged at the end — exact, because
// sum/count/min/max (and avg as sum+count) compose associatively and
// commutatively, and the key-ordered table makes the output order
// independent of the interleaving.
//
// Fetched rows are decoded into column batches that keep filling across a
// worker's consecutive buckets of the same action, so a serial full scan
// runs full-size batches even with one-page buckets. A batch is folded
// when it is full, when the action changes, and when the worker finishes.
// Batches own their decoded values: no page stays pinned across buckets.

#ifndef SMADB_EXEC_BUCKET_AGGR_H_
#define SMADB_EXEC_BUCKET_AGGR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "exec/aggregate.h"
#include "exec/batch.h"
#include "exec/bucket_source.h"
#include "exec/operator.h"
#include "expr/predicate.h"
#include "sma/grade.h"
#include "storage/table.h"

namespace smadb::exec {

/// What BucketAggr does with one bucket.
enum class BucketAction {
  kAnswer,       // fold the bucket's aggregate SMA entries; reads no page
  kFetch,        // fold every row; the predicate is known to hold
  kFetchFilter,  // fold the rows that satisfy the predicate
  kSkip,         // touch nothing
};

/// The per-grade policy of one plan kind.
struct BucketActions {
  /// Plan name reported in the profile detail.
  const char* plan;
  BucketAction qualifying;
  BucketAction ambivalent;
  BucketAction disqualifying;

  BucketAction For(sma::Grade g) const {
    switch (g) {
      case sma::Grade::kQualifies:
        return qualifying;
      case sma::Grade::kDisqualifies:
        return disqualifying;
      case sma::Grade::kAmbivalent:
        break;
    }
    return ambivalent;
  }
};

/// SMA_GAggr (Fig. 7): qualifying buckets answer from the SMAs.
inline constexpr BucketActions kSmaGAggrActions{
    "SMA_GAggr", BucketAction::kAnswer, BucketAction::kFetchFilter,
    BucketAction::kSkip};
/// GAggr over SMA_Scan (Fig. 6): selection pruning only.
inline constexpr BucketActions kSmaScanAggrActions{
    "GAggr(SMA_Scan)", BucketAction::kFetch, BucketAction::kFetchFilter,
    BucketAction::kSkip};
/// GAggr over a full scan. Built without SMAs, so every bucket grades
/// ambivalent.
inline constexpr BucketActions kScanAggrActions{
    "GAggr(TableScan)", BucketAction::kFetchFilter,
    BucketAction::kFetchFilter, BucketAction::kFetchFilter};
/// The bottom rung of the degradation ladder (DESIGN.md §10): ambivalent
/// buckets are skipped, so the answer covers qualifying buckets only — a
/// lower bound, NOT exact. Callers must surface the partial marker
/// (buckets_skipped() reports how many buckets went uninspected).
inline constexpr BucketActions kSmaOnlyActions{
    "SMA_GAggr(sma_only)", BucketAction::kAnswer, BucketAction::kSkip,
    BucketAction::kSkip};

struct BucketAggrOptions {
  /// Worker count; 1 runs the paper's single synchronized pass inline.
  size_t degree_of_parallelism = 1;
  /// Rows per column batch, in [1, kMaxBatchSize].
  size_t batch_size = kDefaultBatchSize;
  /// Demotes this fraction of buckets to ambivalent after grading
  /// (deterministically by bucket hash). Used by the Fig. 5 reproduction to
  /// control "the percentage of buckets that have to be investigated";
  /// results stay correct because ambivalent buckets are filtered per row.
  double force_ambivalent_fraction = 0.0;
  uint64_t force_seed = 0x5eed;
};

class BucketAggr final : public Operator {
 public:
  /// Binds the query (pred / group_by / aggs over `table`). `smas` may be
  /// null only when `actions` never answers: every bucket then grades
  /// ambivalent. Fails with NotSupported when `actions` answers from SMAs
  /// and some aggregate has no matching SMA — the planner then falls back
  /// to kSmaScanAggrActions.
  static util::Result<std::unique_ptr<BucketAggr>> Make(
      storage::Table* table, expr::PredicatePtr pred,
      std::vector<size_t> group_by, std::vector<AggSpec> aggs,
      const sma::SmaSet* smas, const BucketActions& actions,
      BucketAggrOptions options = {});

  const storage::Schema& output_schema() const override { return schema_; }

  /// Pipeline breaker: "Within its init function, the result is computed."
  util::Status Init() override;

  /// "The next function then merely returns one result after another."
  util::Result<bool> NextBatch(Batch* out) override {
    return EmitRows(results_, &next_, out);
  }

  void BindContext(util::QueryContext* ctx) override {
    Operator::BindContext(ctx);
    BindProfile("BucketAggr");
  }

  /// Merged bucket census of the last run (identical for every DOP).
  const SmaScanStats& stats() const { return stats_; }

  /// Ambivalent buckets the action table skipped in the last run.
  uint64_t buckets_skipped() const { return buckets_skipped_; }

 private:
  /// One aggregate's SMA source: the SMA and each SMA group's key projected
  /// onto the query's group-by columns. Immutable after Make — shared
  /// read-only by all workers.
  struct AggBinding {
    const sma::Sma* sma = nullptr;
    std::vector<std::vector<util::Value>> result_keys;
  };

  /// One worker's private state (defined in the .cc).
  struct Worker;

  BucketAggr(storage::Table* table, expr::PredicatePtr pred,
             std::vector<size_t> group_by, std::vector<AggSpec> aggs,
             const sma::SmaSet* smas, storage::Schema schema,
             const BucketActions& actions, BucketAggrOptions options);

  bool answers() const {
    return actions_.qualifying == BucketAction::kAnswer;
  }
  bool fetches() const;

  /// Finds a SMA for (func, arg signature) whose grouping refines the
  /// query's; builds the binding. Null sma on no match.
  AggBinding BindAggregate(sma::AggFunc func, const expr::Expr* arg) const;

  std::unique_ptr<Worker> MakeWorker(const BucketSource& source) const;

  /// Applies coverage and the demotion knob to a raw grade (thread-safe).
  sma::Grade EffectiveGrade(sma::Grade g, uint64_t b) const;

  /// Init minus the profile feed: Init wraps this so the final census
  /// reaches the profile node exactly once on every path — success,
  /// mid-run failure, and the degraded rung alike.
  util::Status InitImpl();

  /// One bucket's work, dispatched on its action.
  util::Status ProcessBucket(const BucketSource& source, Worker* w,
                             uint64_t b);
  util::Status Answer(Worker* w, uint64_t b);
  util::Status Fetch(Worker* w, BucketAction action, uint64_t b);
  /// Folds the rows buffered in the worker's batch.
  void FoldBatch(Worker* w);
  /// Charges the worker's group-state growth since the last charge.
  util::Status ChargeGroups(Worker* w);

  storage::Table* table_;
  expr::PredicatePtr pred_;
  std::vector<size_t> group_by_;
  std::vector<AggSpec> aggs_;
  const sma::SmaSet* smas_;
  storage::Schema schema_;
  BucketActions actions_;
  BucketAggrOptions options_;

  // Filled only when the actions answer: one binding per aggregate (avg
  // binds its sum SMA; count binds null and rides on count_binding_), plus
  // the mandatory count(*) binding.
  std::vector<AggBinding> bindings_;
  AggBinding count_binding_;
  uint64_t covered_buckets_ = UINT64_MAX;  // min SMA coverage of bindings

  std::vector<storage::TupleBuffer> results_;
  size_t next_ = 0;
  SmaScanStats stats_;
  uint64_t buckets_skipped_ = 0;
  uint64_t pages_read_ = 0;
};

}  // namespace smadb::exec

#endif  // SMADB_EXEC_BUCKET_AGGR_H_
