#include "exec/bucket_aggr.h"

#include <algorithm>

#include "exec/batch_aggregator.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace smadb::exec {

using sma::AggFunc;
using sma::Grade;
using sma::Sma;
using util::Result;
using util::Status;
using util::Value;

namespace {

// func/kind correspondence between query aggregates and SMA functions.
AggFunc SmaFuncFor(AggKind kind) {
  switch (kind) {
    case AggKind::kSum:
    case AggKind::kAvg:
      return AggFunc::kSum;
    case AggKind::kCount:
      return AggFunc::kCount;
    case AggKind::kMin:
      return AggFunc::kMin;
    case AggKind::kMax:
      return AggFunc::kMax;
  }
  return AggFunc::kCount;
}

// True when every query group-by column appears in the SMA's group-by
// (the SMA grouping refines the query grouping).
bool GroupingRefines(const std::vector<size_t>& query_groups,
                     const std::vector<size_t>& sma_groups) {
  for (size_t qcol : query_groups) {
    if (std::find(sma_groups.begin(), sma_groups.end(), qcol) ==
        sma_groups.end()) {
      return false;
    }
  }
  return true;
}

}  // namespace

/// One worker's private state. The grader, cursors and reader hold page
/// pins, so each belongs to one thread; the group table, aggregator and
/// census are the worker's partial results.
struct BucketAggr::Worker {
  std::unique_ptr<sma::BucketGrader> grader;
  // Per-group SMA-file cursors, parallel to count_binding_ / bindings_.
  std::vector<sma::SmaFile::Cursor> count_cursors;
  std::vector<std::vector<sma::SmaFile::Cursor>> agg_cursors;
  BucketReader reader;
  Batch batch;
  BatchAggregator aggregator;
  GroupTable groups;
  SmaScanStats stats;
  // Action of the rows buffered in `batch`.
  BucketAction pending = BucketAction::kSkip;
  uint64_t skipped = 0;
  size_t charged = 0;  // group-state bytes already charged

  Worker(storage::Table* table, const std::vector<size_t>* group_by,
         const std::vector<AggSpec>* aggs)
      : reader(table),
        aggregator(&table->schema(), group_by, aggs),
        groups(aggs) {}
};

BucketAggr::BucketAggr(storage::Table* table, expr::PredicatePtr pred,
                       std::vector<size_t> group_by, std::vector<AggSpec> aggs,
                       const sma::SmaSet* smas, storage::Schema schema,
                       const BucketActions& actions,
                       BucketAggrOptions options)
    : table_(table),
      pred_(std::move(pred)),
      group_by_(std::move(group_by)),
      aggs_(std::move(aggs)),
      smas_(smas),
      schema_(std::move(schema)),
      actions_(actions),
      options_(options) {}

bool BucketAggr::fetches() const {
  for (BucketAction a :
       {actions_.qualifying, actions_.ambivalent, actions_.disqualifying}) {
    if (a == BucketAction::kFetch || a == BucketAction::kFetchFilter) {
      return true;
    }
  }
  return false;
}

BucketAggr::AggBinding BucketAggr::BindAggregate(AggFunc func,
                                                 const expr::Expr* arg) const {
  AggBinding binding;
  const std::string arg_sig = arg != nullptr ? arg->ToString() : "";
  const Sma* best = nullptr;
  for (const Sma* sma : smas_->all()) {
    const sma::SmaSpec& spec = sma->spec();
    if (spec.func != func) continue;
    const std::string spec_sig =
        spec.arg != nullptr ? spec.arg->ToString() : "";
    if (spec_sig != arg_sig) continue;
    if (!GroupingRefines(group_by_, spec.group_by)) continue;
    // Prefer the coarsest refining grouping (fewest files to read).
    if (best == nullptr ||
        spec.group_by.size() < best->spec().group_by.size()) {
      best = sma;
    }
  }
  if (best == nullptr) return binding;

  binding.sma = best;
  // Project each SMA group key onto the query group-by columns.
  std::vector<size_t> positions;  // query col -> index in SMA group key
  for (size_t qcol : group_by_) {
    const auto& sg = best->spec().group_by;
    positions.push_back(static_cast<size_t>(
        std::find(sg.begin(), sg.end(), qcol) - sg.begin()));
  }
  for (size_t g = 0; g < best->num_groups(); ++g) {
    const std::vector<Value>& key = best->group_key(g);
    std::vector<Value> projected;
    projected.reserve(positions.size());
    for (size_t pos : positions) projected.push_back(key[pos]);
    binding.result_keys.push_back(std::move(projected));
  }
  return binding;
}

Result<std::unique_ptr<BucketAggr>> BucketAggr::Make(
    storage::Table* table, expr::PredicatePtr pred,
    std::vector<size_t> group_by, std::vector<AggSpec> aggs,
    const sma::SmaSet* smas, const BucketActions& actions,
    BucketAggrOptions options) {
  SMADB_RETURN_NOT_OK(ValidateBatchSize(options.batch_size));
  SMADB_ASSIGN_OR_RETURN(storage::Schema schema,
                         AggResultSchema(table->schema(), group_by, aggs));
  std::unique_ptr<BucketAggr> op(new BucketAggr(
      table, std::move(pred), std::move(group_by), std::move(aggs), smas,
      std::move(schema), actions, options));
  if (!op->answers()) return op;
  if (smas == nullptr) {
    return Status::NotSupported(
        util::Format("%s answers from SMAs but the table has none",
                     actions.plan));
  }

  // The count(*) binding is mandatory (group cardinalities + emptiness).
  op->count_binding_ = op->BindAggregate(AggFunc::kCount, nullptr);
  if (op->count_binding_.sma == nullptr) {
    return Status::NotSupported(
        "SMA_GAggr needs a count(*) SMA whose grouping refines the query's");
  }
  op->covered_buckets_ = op->count_binding_.sma->num_buckets();

  for (const AggSpec& a : op->aggs_) {
    AggBinding binding;
    if (a.kind != AggKind::kCount) {  // count(*) rides on count_binding_
      binding = op->BindAggregate(SmaFuncFor(a.kind), a.arg.get());
      if (binding.sma == nullptr) {
        return Status::NotSupported(util::Format(
            "no SMA matches aggregate %s(%s) with the query's grouping",
            std::string(AggKindToString(a.kind)).c_str(),
            a.arg->ToString().c_str()));
      }
      op->covered_buckets_ =
          std::min(op->covered_buckets_, binding.sma->num_buckets());
    }
    op->bindings_.push_back(std::move(binding));
  }
  return op;
}

std::unique_ptr<BucketAggr::Worker> BucketAggr::MakeWorker(
    const BucketSource& source) const {
  auto w = std::make_unique<Worker>(table_, &group_by_, &aggs_);
  w->grader = source.NewGrader();
  // Every worker reads the same consistent append prefix the source
  // captured; pages appended mid-run stay invisible.
  w->reader.set_snapshot(source.snapshot());
  if (fetches()) {
    // Project only what grouping, aggregation and the predicate read.
    std::vector<bool> mask = w->aggregator.RequiredColumns();
    pred_->AddReferencedColumns(&mask);
    w->batch.Configure(&table_->schema(), options_.batch_size,
                       std::move(mask));
  }
  if (answers()) {
    for (size_t g = 0; g < count_binding_.sma->num_groups(); ++g) {
      w->count_cursors.push_back(
          count_binding_.sma->group_file(g)->NewCursor());
    }
    for (const AggBinding& binding : bindings_) {
      std::vector<sma::SmaFile::Cursor> cursors;
      if (binding.sma != nullptr) {
        for (size_t g = 0; g < binding.sma->num_groups(); ++g) {
          cursors.push_back(binding.sma->group_file(g)->NewCursor());
        }
      }
      w->agg_cursors.push_back(std::move(cursors));
    }
  }
  return w;
}

Grade BucketAggr::EffectiveGrade(Grade g, uint64_t b) const {
  // A qualifying bucket beyond aggregate-SMA coverage must be inspected.
  if (g == Grade::kQualifies && b >= covered_buckets_) {
    g = Grade::kAmbivalent;
  }
  // Experiment knob: demote a deterministic fraction of buckets so the
  // Fig. 5 sweep can control the investigated percentage.
  if (options_.force_ambivalent_fraction > 0.0) {
    util::Rng bucket_rng(options_.force_seed ^ (b * 0x9E3779B9ULL));
    if (bucket_rng.NextDouble() < options_.force_ambivalent_fraction) {
      g = Grade::kAmbivalent;
    }
  }
  return g;
}

Status BucketAggr::Answer(Worker* w, uint64_t b) {
  // Direct answers read aggregate values straight out of the SMA entries, so
  // the bucket's shared latch must exclude a concurrent maintainer folding a
  // fresh append into those entries mid-read. (Grading only needs superset
  // soundness; direct answers need the exact snapshot value — the boundary
  // bucket was already demoted to ambivalent for that reason.)
  auto latch = table_->latches()->LockShared(b);
  // Group cardinalities first: they establish which groups exist.
  for (size_t g = 0; g < w->count_cursors.size(); ++g) {
    SMADB_ASSIGN_OR_RETURN(int64_t count, w->count_cursors[g].Get(b));
    if (count > 0) {
      w->groups.Get(count_binding_.result_keys[g])->AddBucketCount(count);
    }
  }
  // Then each aggregate from its own SMA.
  for (size_t i = 0; i < aggs_.size(); ++i) {
    const AggBinding& binding = bindings_[i];
    if (binding.sma == nullptr) continue;  // count(*): handled above
    std::vector<sma::SmaFile::Cursor>& cursors = w->agg_cursors[i];
    for (size_t g = 0; g < cursors.size(); ++g) {
      SMADB_ASSIGN_OR_RETURN(int64_t v, cursors[g].Get(b));
      if (binding.sma->IsUndefined(v)) continue;  // empty min/max group
      if (v == 0 && binding.sma->spec().func == AggFunc::kSum) {
        continue;  // zero sums are identity; skip the group-table touch
      }
      w->groups.Get(binding.result_keys[g])->AddSummary(i, v);
    }
  }
  return Status::OK();
}

void BucketAggr::FoldBatch(Worker* w) {
  if (w->batch.num_rows() == 0) return;
  w->batch.SelectAll();
  // Grade -> selection: kFetch keeps the dense all-rows selection without
  // evaluating the predicate (§3.2); kFetchFilter refines it.
  if (w->pending == BucketAction::kFetchFilter) {
    pred_->EvalBatch(w->batch.cols, &w->batch.sel);
  }
  w->aggregator.AddBatch(w->batch);
  w->batch.Clear();
}

Status BucketAggr::Fetch(Worker* w, BucketAction action, uint64_t b) {
  if (action != w->pending) {
    FoldBatch(w);
    w->pending = action;
  }
  // The reader latches the bucket while it streams it and clamps to the
  // snapshot; it closes itself (dropping pin and latch) at the range end.
  const auto [first, end] = table_->BucketPageRange(static_cast<uint32_t>(b));
  SMADB_RETURN_NOT_OK(w->reader.Open(first, end));
  while (true) {
    if (w->batch.cols.full()) FoldBatch(w);
    SMADB_ASSIGN_OR_RETURN(bool has, w->reader.NextBatch(&w->batch.cols));
    if (!has) return Status::OK();
  }
}

Status BucketAggr::ChargeGroups(Worker* w) {
  // Charges are deltas of the running footprint estimate, so repeated
  // charges never double-count.
  const size_t bytes = w->groups.approx_bytes() + w->aggregator.approx_bytes();
  if (bytes <= w->charged) return Status::OK();
  SMADB_RETURN_NOT_OK(ChargeMemory(bytes - w->charged, "GroupTable"));
  w->charged = bytes;
  return Status::OK();
}

Status BucketAggr::ProcessBucket(const BucketSource& source, Worker* w,
                                 uint64_t b) {
  // Bucket-granular cooperative checkpoint (every grade, every worker).
  SMADB_RETURN_NOT_OK(CheckRuntime("BucketAggr"));
  // GradeLatched = shared latch during grading + boundary-bucket demotion,
  // so worker censuses match for every DOP.
  SMADB_ASSIGN_OR_RETURN(Grade g, source.GradeLatched(w->grader.get(), b));
  g = EffectiveGrade(g, b);
  w->stats.Tally(g);
  const BucketAction action = actions_.For(g);
  switch (action) {
    case BucketAction::kSkip:
      if (g == Grade::kAmbivalent) ++w->skipped;
      return Status::OK();
    case BucketAction::kAnswer:
      SMADB_RETURN_NOT_OK(Answer(w, b));
      break;
    case BucketAction::kFetch:
    case BucketAction::kFetchFilter:
      SMADB_RETURN_NOT_OK(Fetch(w, action, b));
      break;
  }
  return ChargeGroups(w);
}

Status BucketAggr::Init() {
  obs::OpTimer timer(prof_);
  const Status s = InitImpl();
  if (prof_ != nullptr) {
    // Single feed point: stats_ is final here on every path (the workers'
    // censuses merge into it exactly once, also when a bucket failed), so
    // the profile never double-counts a bucket — degraded-ladder reruns
    // register a fresh node.
    prof_->AddBuckets(stats_.qualifying_buckets, stats_.disqualifying_buckets,
                      stats_.ambivalent_buckets);
    prof_->AddBucketsSkipped(buckets_skipped_);
    prof_->AddPagesRead(pages_read_);
    prof_->SetDetail(util::Format(
        "plan=%s groups=%zu dop=%zu batch=%zu", actions_.plan,
        results_.size(), std::max<size_t>(1, options_.degree_of_parallelism),
        options_.batch_size));
    if (!s.ok()) prof_->MarkFailed(s.ToString());
  }
  return s;
}

Status BucketAggr::InitImpl() {
  results_.clear();
  next_ = 0;
  stats_ = SmaScanStats();
  buckets_skipped_ = 0;
  pages_read_ = 0;

  BucketSource source(table_, pred_, smas_);
  const size_t dop = std::max<size_t>(1, options_.degree_of_parallelism);
  std::vector<std::unique_ptr<Worker>> workers;
  workers.reserve(dop);
  for (size_t i = 0; i < dop; ++i) {
    workers.push_back(MakeWorker(source));
    SMADB_RETURN_NOT_OK(
        ChargeMemory(workers.back()->batch.cols.ApproxBytes(), "ColumnBatch"));
  }

  // The cancel token reaches the claim loop itself: once it trips, no
  // further bucket is claimed, and every worker has left the loop body by
  // the time ParallelFor returns.
  const util::CancelToken* cancel =
      ctx_ != nullptr ? ctx_->cancel() : nullptr;
  const Status par = util::ThreadPool::Shared()->ParallelFor(
      0, source.num_buckets(), dop,
      [&](size_t i, uint64_t b) {
        return ProcessBucket(source, workers[i].get(), b);
      },
      cancel);
  // Censuses merge exactly once, success or failure: the pool has drained,
  // so worker state is quiescent.
  for (const std::unique_ptr<Worker>& w : workers) {
    stats_.Merge(w->stats);
    buckets_skipped_ += w->skipped;
    pages_read_ += w->reader.pages_opened();
  }
  SMADB_RETURN_NOT_OK(par);

  // Fold each worker's last batch and partials into one table. Growth here
  // carries its own component name so a budget trip is attributable to
  // the merge, not the scan.
  GroupTable groups(&aggs_);
  for (const std::unique_ptr<Worker>& w : workers) {
    FoldBatch(w.get());
    const size_t before = groups.approx_bytes();
    w->aggregator.FlushInto(&groups);
    groups.MergeFrom(w->groups);
    if (groups.approx_bytes() > before) {
      SMADB_RETURN_NOT_OK(
          ChargeMemory(groups.approx_bytes() - before, "GroupTable.merge"));
    }
  }
  // Phase 3 (average finalization) happens inside Emit/Finalize.
  return groups.Emit(&schema_, &results_);
}

}  // namespace smadb::exec
