#include "exec/sma_scan.h"

namespace smadb::exec {

using sma::Grade;
using util::Result;
using util::Status;

Status SmaScan::Init() {
  obs::OpTimer timer(prof_);
  source_.Reset();
  grader_ = source_.NewGrader();
  reader_.Close();
  reader_.set_snapshot(source_.snapshot());
  next_bucket_ = 0;
  done_ = false;
  stats_ = SmaScanStats();
  return GetBucket();
}

Status SmaScan::GetBucket() {
  // "do { advance currBucketNo; advance all smas; currGrade = grade(...); }
  //  while (currGrade != qualifies and currGrade != ambivalent)"
  Grade grade = Grade::kDisqualifies;
  uint64_t bucket = 0;
  while (grade == Grade::kDisqualifies) {  // skip without touching
    // Bucket-granular cooperative checkpoint: covers both the skip loop
    // over disqualifying buckets and every bucket actually fetched.
    SMADB_RETURN_NOT_OK(CheckRuntime("SmaScan"));
    if (next_bucket_ >= source_.num_buckets()) {
      done_ = true;
      return Status::OK();
    }
    bucket = next_bucket_++;
    SMADB_ASSIGN_OR_RETURN(grade, source_.GradeLatched(grader_.get(), bucket));
    stats_.Tally(grade);
    if (prof_ != nullptr) {
      // One call per bucket, mirroring stats_ — the grade ground truth the
      // explain-analyze census tests compare against.
      prof_->AddBuckets(grade == Grade::kQualifies,
                        grade == Grade::kDisqualifies,
                        grade == Grade::kAmbivalent);
    }
  }
  curr_grade_ = grade;
  // "read bucket currBucketNo" — position on its first page.
  const auto [first, end] =
      source_.table()->BucketPageRange(static_cast<uint32_t>(bucket));
  return reader_.Open(first, end);
}

Result<bool> SmaScan::NextBatch(Batch* out) {
  obs::OpTimer timer(prof_);
  SMADB_RETURN_NOT_OK(CheckRuntime("SmaScan"));
  out->Clear();
  Grade grade = curr_grade_;
  while (!done_) {
    SMADB_RETURN_NOT_OK(reader_.NextBatch(&out->cols).status());
    if (out->cols.full()) break;
    // The bucket is exhausted: keep filling from the next one unless its
    // grade differs from the rows already in the batch.
    SMADB_RETURN_NOT_OK(GetBucket());
    if (out->num_rows() > 0 && curr_grade_ != grade) break;
    grade = curr_grade_;
  }
  if (out->num_rows() == 0) {
    FeedPages();
    return false;
  }
  out->SelectAll();
  // Grade -> selection: qualifying keeps the dense all-rows selection
  // untouched (§3.2's "no predicate evaluation"); ambivalent refines it.
  if (grade != Grade::kQualifies) {
    source_.pred()->EvalBatch(out->cols, &out->sel);
  }
  if (prof_ != nullptr) {
    prof_->AddBatches(1);
    prof_->AddRows(out->sel.count());
    FeedPages();
  }
  return true;
}

}  // namespace smadb::exec
