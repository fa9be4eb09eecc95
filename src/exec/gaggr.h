// GAggr: grouping with aggregation over any child operator (Dayal's GAggr
// [4]) — hash grouping, pipeline breaker. Base-table aggregates run as
// BucketAggr; GAggr serves the rest (joins, test pipelines).

#ifndef SMADB_EXEC_GAGGR_H_
#define SMADB_EXEC_GAGGR_H_

#include <memory>
#include <vector>

#include "exec/aggregate.h"
#include "exec/operator.h"

namespace smadb::exec {

class GAggr final : public Operator {
 public:
  /// Groups the child's output on `group_by` (child-schema ordinals) and
  /// computes `aggs`, pulling the child through NextBatch in batches of
  /// `batch_size` rows (in [1, kMaxBatchSize]) projected to the group-by,
  /// aggregate and child-required columns, folded by the fused
  /// BatchAggregator kernels. Construction validates via Make().
  static util::Result<std::unique_ptr<GAggr>> Make(
      std::unique_ptr<Operator> child, std::vector<size_t> group_by,
      std::vector<AggSpec> aggs, size_t batch_size = kDefaultBatchSize);

  const storage::Schema& output_schema() const override { return schema_; }

  /// Pipeline breaker: consumes the entire child here.
  util::Status Init() override;

  util::Result<bool> NextBatch(Batch* out) override {
    return EmitRows(results_, &next_, out);
  }

  void BindContext(util::QueryContext* ctx) override {
    Operator::BindContext(ctx);
    auto scope = BindProfile("GAggr");
    child_->BindContext(ctx);
  }

 private:
  GAggr(std::unique_ptr<Operator> child, std::vector<size_t> group_by,
        std::vector<AggSpec> aggs, storage::Schema schema, size_t batch_size)
      : child_(std::move(child)),
        group_by_(std::move(group_by)),
        aggs_(std::move(aggs)),
        schema_(std::move(schema)),
        batch_size_(batch_size) {}

  std::unique_ptr<Operator> child_;
  std::vector<size_t> group_by_;
  std::vector<AggSpec> aggs_;
  storage::Schema schema_;
  size_t batch_size_;
  std::vector<storage::TupleBuffer> results_;
  size_t next_ = 0;
};

}  // namespace smadb::exec

#endif  // SMADB_EXEC_GAGGR_H_
