// Physical-algebra operator interface: the iterator concept of Graefe [7]
// the paper's SMA_Scan / SMA_GAggr plug into (Init / Next / implicit close
// via destructor), extended with a batch-at-a-time protocol (NextBatch).
// Aggregation is batch-only (BucketAggr over base tables, GAggr over other
// children pulling NextBatch); results leave through Next — see DESIGN.md
// §9.

#ifndef SMADB_EXEC_OPERATOR_H_
#define SMADB_EXEC_OPERATOR_H_

#include <vector>

#include "exec/batch.h"
#include "obs/profile.h"
#include "storage/schema.h"
#include "storage/tuple.h"
#include "util/query_context.h"
#include "util/status.h"

namespace smadb::exec {

/// Pull-based physical operator. Row usage:
///   op.Init();  while (op.Next(&t) yields true) consume(t);
/// Batch usage:
///   batch.Configure(&op.output_schema(), n, projection);
///   op.Init();  while (op.NextBatch(&batch) yields true) consume(batch);
/// Do not interleave Next and NextBatch on one instance between Init calls.
class Operator {
 public:
  virtual ~Operator() = default;

  /// Schema of the tuples Next() produces.
  virtual const storage::Schema& output_schema() const = 0;

  /// Prepares the operator; pipeline breakers do their work here.
  virtual util::Status Init() = 0;

  /// Produces the next tuple into `*out`. The view stays valid until the
  /// following Next()/destruction. Returns false at end of stream.
  virtual util::Result<bool> Next(storage::TupleRef* out) = 0;

  /// Produces the next batch into `*out` (pre-Configured by the caller
  /// against output_schema()). Returns false at end of stream; true means
  /// rows were decoded — the selection may still be empty, in which case
  /// the consumer skips the batch and pulls again. Batch contents stay
  /// valid until the following NextBatch()/Init().
  ///
  /// The default adapter loops Next(), so every operator is batch-capable;
  /// operators with native batch paths (TableScan, SmaScan, Filter)
  /// override it to decode column-at-a-time and drive the predicate through
  /// selection vectors.
  virtual util::Result<bool> NextBatch(Batch* out) {
    out->Clear();
    storage::TupleRef t;
    while (!out->cols.full()) {
      SMADB_ASSIGN_OR_RETURN(bool has, Next(&t));
      if (!has) break;
      out->cols.AppendRow(t);
    }
    out->SelectAll();
    return out->num_rows() > 0;
  }

  /// Sets `mask[c]` for every column of output_schema() this operator reads
  /// while producing batches (e.g. a scan's predicate columns). Consumers
  /// union this into the projection they Configure batches with, so
  /// projection pushdown never starves the producer. Default: none.
  virtual void AddRequiredBatchColumns(std::vector<bool>* mask) const {
    (void)mask;
  }

  /// Binds the query's runtime governor (cancellation + deadline + memory
  /// budget, DESIGN.md §10). Operators with children must propagate the
  /// bind down the tree. Null (the default state) runs ungoverned; bind
  /// before Init().
  ///
  /// Overrides also register the operator's profile node (DESIGN.md §11):
  /// hold the ProfileScope from BindProfile across the children's
  /// BindContext calls so their nodes nest beneath this one.
  virtual void BindContext(util::QueryContext* ctx) { ctx_ = ctx; }

 protected:
  /// Registers this operator in the bound query's profile (no-op when the
  /// query is unprofiled) and returns the scope that makes it the parent
  /// of nodes registered while the scope lives. Call after setting ctx_.
  obs::ProfileScope BindProfile(const char* name) {
    return obs::ProfileScope(ctx_ != nullptr ? ctx_->profile() : nullptr,
                             name, &prof_);
  }

  /// Null-safe cooperative checkpoint; operators call this at bucket/batch
  /// granularity (never per tuple — one relaxed load plus a clock read).
  util::Status CheckRuntime(std::string_view where) const {
    return util::QueryContext::Check(ctx_, where);
  }

  /// Null-safe memory charge against the query budget.
  util::Status ChargeMemory(size_t bytes, std::string_view component) const {
    return util::QueryContext::Charge(ctx_, bytes, component);
  }

  /// Rows between checkpoints in row operators (TableScan::Next, Sort,
  /// HashJoin): roughly one page's worth, so they observe cancellation as
  /// fast as the bucket/batch checkpoints of the aggregates.
  static constexpr size_t kRowsPerCheck = 512;

  util::QueryContext* ctx_ = nullptr;
  /// This operator's profile node; null unless the query runs under
  /// `explain analyze`. Feed with relaxed tallies, always null-guarded.
  obs::OperatorProfile* prof_ = nullptr;
};

}  // namespace smadb::exec

#endif  // SMADB_EXEC_OPERATOR_H_
