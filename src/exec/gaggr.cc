#include "exec/gaggr.h"

#include "exec/batch_aggregator.h"
#include "util/string_util.h"

namespace smadb::exec {

using util::Result;
using util::Status;

Result<std::unique_ptr<GAggr>> GAggr::Make(std::unique_ptr<Operator> child,
                                           std::vector<size_t> group_by,
                                           std::vector<AggSpec> aggs,
                                           size_t batch_size) {
  SMADB_RETURN_NOT_OK(ValidateBatchSize(batch_size));
  SMADB_ASSIGN_OR_RETURN(
      storage::Schema schema,
      AggResultSchema(child->output_schema(), group_by, aggs));
  return std::unique_ptr<GAggr>(new GAggr(std::move(child),
                                          std::move(group_by),
                                          std::move(aggs),
                                          std::move(schema), batch_size));
}

Status GAggr::Init() {
  obs::OpTimer timer(prof_);
  results_.clear();
  next_ = 0;
  SMADB_RETURN_NOT_OK(child_->Init());

  // Project only what grouping, aggregation, and the child's own
  // predicates read, then run fused kernels per batch.
  BatchAggregator aggregator(&child_->output_schema(), &group_by_, &aggs_);
  std::vector<bool> mask = aggregator.RequiredColumns();
  child_->AddRequiredBatchColumns(&mask);
  Batch batch;
  batch.Configure(&child_->output_schema(), batch_size_, std::move(mask));
  SMADB_RETURN_NOT_OK(ChargeMemory(batch.cols.ApproxBytes(), "ColumnBatch"));
  // Charges are deltas of the running footprint estimate, so repeated
  // charges never double-count.
  GroupTable groups(&aggs_);
  size_t charged = 0;
  auto charge_groups = [&](size_t bytes) -> Status {
    if (bytes > charged) {
      SMADB_RETURN_NOT_OK(ChargeMemory(bytes - charged, "GroupTable"));
      charged = bytes;
    }
    return Status::OK();
  };
  while (true) {
    SMADB_RETURN_NOT_OK(CheckRuntime("GAggr"));
    SMADB_ASSIGN_OR_RETURN(bool has, child_->NextBatch(&batch));
    if (!has) break;
    aggregator.AddBatch(batch);
    SMADB_RETURN_NOT_OK(charge_groups(aggregator.approx_bytes()));
  }
  aggregator.FlushInto(&groups);
  SMADB_RETURN_NOT_OK(charge_groups(groups.approx_bytes()));
  SMADB_RETURN_NOT_OK(groups.Emit(&schema_, &results_));
  if (prof_ != nullptr) {
    prof_->NotePeakBytes(charged);
    prof_->SetDetail(util::Format("groups=%zu batch=%zu", results_.size(),
                                  batch_size_));
  }
  return Status::OK();
}

}  // namespace smadb::exec
