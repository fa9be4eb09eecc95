// Sort (with optional LIMIT): materializing order-by over any child.

#ifndef SMADB_EXEC_SORT_H_
#define SMADB_EXEC_SORT_H_

#include <memory>
#include <vector>

#include "exec/operator.h"

namespace smadb::exec {

/// One sort key: output-schema ordinal + direction.
struct SortKey {
  size_t column;
  bool descending = false;
};

class Sort final : public Operator {
 public:
  /// Sorts the child's entire output by `keys` (ties keep child order —
  /// stable). `limit` 0 means unlimited.
  static util::Result<std::unique_ptr<Sort>> Make(
      std::unique_ptr<Operator> child, std::vector<SortKey> keys,
      size_t limit = 0);

  const storage::Schema& output_schema() const override {
    return child_->output_schema();
  }

  util::Status Init() override;
  util::Result<bool> NextBatch(Batch* out) override {
    return EmitRows(rows_, &next_, out);
  }

  void BindContext(util::QueryContext* ctx) override {
    Operator::BindContext(ctx);
    auto scope = BindProfile("Sort");
    child_->BindContext(ctx);
  }

 private:
  Sort(std::unique_ptr<Operator> child, std::vector<SortKey> keys,
       size_t limit)
      : child_(std::move(child)), keys_(std::move(keys)), limit_(limit) {}

  std::unique_ptr<Operator> child_;
  std::vector<SortKey> keys_;
  size_t limit_;
  std::vector<storage::TupleBuffer> rows_;
  size_t next_ = 0;
};

}  // namespace smadb::exec

#endif  // SMADB_EXEC_SORT_H_
