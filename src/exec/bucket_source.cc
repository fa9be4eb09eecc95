#include "exec/bucket_source.h"

#include <algorithm>

namespace smadb::exec {

using util::Result;
using util::Status;

BucketSource::BucketSource(storage::Table* table, expr::PredicatePtr pred,
                           const sma::SmaSet* smas)
    : table_(table),
      pred_(std::move(pred)),
      smas_(smas),
      snapshot_(table->CaptureSnapshot()) {}

Result<sma::Grade> BucketSource::GradeLatched(sma::BucketGrader* grader,
                                              uint64_t bucket) const {
  if (grader == nullptr) {
    return ApplySnapshot(bucket, sma::Grade::kAmbivalent);
  }
  auto latch = table_->latches()->LockShared(bucket);
  SMADB_ASSIGN_OR_RETURN(sma::Grade g, grader->GradeBucket(bucket));
  latch.Release();
  return ApplySnapshot(bucket, g);
}

Status BucketReader::Open(uint32_t first_page, uint32_t end_page) {
  Close();
  if (has_snapshot_) end_page = std::min(end_page, snapshot_.pages);
  page_ = first_page;
  page_end_ = end_page;
  slot_ = 0;
  page_count_ = 0;
  open_ = first_page < end_page;
  if (open_) SMADB_RETURN_NOT_OK(PinPage());
  return Status::OK();
}

Status BucketReader::PinPage() {
  const uint64_t bucket = table_->BucketOfPage(page_);
  if (!latch_.held() || latched_bucket_ != bucket) {
    // Coupling: release before acquiring so at most one latch is held (the
    // old and new bucket can share a shard, and shared_mutex is not
    // reentrant when a writer is queued).
    latch_.Release();
    latch_ = table_->latches()->LockShared(bucket);
    latched_bucket_ = bucket;
  }
  SMADB_ASSIGN_OR_RETURN(guard_, table_->FetchPage(page_));
  ++pages_opened_;
  uint16_t n = storage::Table::PageTupleCount(*guard_.page());
  if (has_snapshot_) n = snapshot_.VisibleSlots(page_, n);
  page_count_ = n;
  return Status::OK();
}

Result<bool> BucketReader::NextBatch(storage::ColumnBatch* cols) {
  const size_t before = cols->num_rows();
  while (open_ && !cols->full()) {
    if (slot_ >= page_count_) {
      if (page_ + 1 >= page_end_) {
        open_ = false;
        Close();
        break;
      }
      ++page_;
      slot_ = 0;
      SMADB_RETURN_NOT_OK(PinPage());
      continue;
    }
    slot_ =
        cols->AppendFromPage(*table_, *guard_.page(), slot_, page_count_);
  }
  return cols->num_rows() > before;
}

}  // namespace smadb::exec
