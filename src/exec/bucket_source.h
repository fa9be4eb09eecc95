// BucketSource / BucketReader: the bucket-granular work-unit layer.
//
// Every SMA access path walks the same structure — the table's physically
// consecutive buckets (§2.1), graded per predicate (§3.1), then read page
// by page. This file centralizes that walk for SmaScan, BucketAggr and
// the planner's census. Every consumer grades through its own
// cursor-backed BucketGrader (graders hold page pins and are therefore
// per-thread; the Sma structures they read are immutable and shared). For
// parallel execution one bucket is one work unit: workers claim bucket
// indices from ThreadPool::ParallelFor.

#ifndef SMADB_EXEC_BUCKET_SOURCE_H_
#define SMADB_EXEC_BUCKET_SOURCE_H_

#include <memory>

#include "expr/predicate.h"
#include "sma/grade.h"
#include "storage/column_batch.h"
#include "storage/table.h"

namespace smadb::exec {

/// Per-run skip statistics (what Fig. 5's x-axis is made of).
struct SmaScanStats {
  uint64_t qualifying_buckets = 0;
  uint64_t disqualifying_buckets = 0;
  uint64_t ambivalent_buckets = 0;

  uint64_t BucketsTotal() const {
    return qualifying_buckets + disqualifying_buckets + ambivalent_buckets;
  }
  /// Folds `g` into the census.
  void Tally(sma::Grade g) {
    switch (g) {
      case sma::Grade::kQualifies:
        ++qualifying_buckets;
        break;
      case sma::Grade::kDisqualifies:
        ++disqualifying_buckets;
        break;
      case sma::Grade::kAmbivalent:
        ++ambivalent_buckets;
        break;
    }
  }
  /// Merges a worker's partial census.
  void Merge(const SmaScanStats& o) {
    qualifying_buckets += o.qualifying_buckets;
    disqualifying_buckets += o.disqualifying_buckets;
    ambivalent_buckets += o.ambivalent_buckets;
  }
};

/// The buckets of a table for one predicate, graded against the SMAs:
/// consumers grade bucket indices in [0, num_buckets()) with a grader of
/// their own (NewGrader) through GradeLatched.
///
/// Construction captures a TableSnapshot: the walk covers exactly the
/// buckets of that consistent append prefix, and the one bucket a
/// concurrent appender may still be folding into (snapshot boundary) is
/// demoted to ambivalent — its SMA entries cover a superset of the
/// snapshot's rows, which is sound for skip decisions but not for direct
/// answers, so its rows are inspected (snapshot-clamped) instead.
class BucketSource {
 public:
  /// `smas` may be null — every bucket then grades ambivalent.
  BucketSource(storage::Table* table, expr::PredicatePtr pred,
               const sma::SmaSet* smas);

  storage::Table* table() const { return table_; }
  const expr::PredicatePtr& pred() const { return pred_; }
  const storage::TableSnapshot& snapshot() const { return snapshot_; }
  uint64_t num_buckets() const { return snapshot_.buckets; }

  /// Captures a fresh snapshot (a re-executed operator sees a fresh
  /// consistent prefix).
  void Reset() { snapshot_ = table_->CaptureSnapshot(); }

  /// A fresh grading stream for one consumer (cursors hold page pins, so a
  /// grader must not be shared across threads; creating one per worker from
  /// the shared immutable SMAs is safe and keeps per-worker access
  /// amortized-sequential). Null when the source has no SMAs — every
  /// bucket grades ambivalent then.
  std::unique_ptr<sma::BucketGrader> NewGrader() const {
    if (smas_ == nullptr) return nullptr;
    return sma::BucketGrader::Create(pred_, smas_);
  }

  /// Demotes the snapshot-boundary bucket to ambivalent; identity for every
  /// other bucket. Idempotent — operators may re-apply freely.
  sma::Grade ApplySnapshot(uint64_t bucket, sma::Grade g) const {
    if (snapshot_.demote_boundary && bucket == snapshot_.boundary_bucket) {
      return sma::Grade::kAmbivalent;
    }
    return g;
  }

  /// Grades `bucket` with `grader` (null = ambivalent) under the bucket's
  /// shared latch, then applies the snapshot demotion. The one grading
  /// entry point every consumer goes through, so all censuses agree.
  util::Result<sma::Grade> GradeLatched(sma::BucketGrader* grader,
                                        uint64_t bucket) const;

 private:
  storage::Table* table_;
  expr::PredicatePtr pred_;
  const sma::SmaSet* smas_;
  storage::TableSnapshot snapshot_;
};

/// Decodes the live tuples of a consecutive page range into column batches,
/// keeping the current page pinned — the page walk shared by SmaScan,
/// BucketAggr and SmaSemiJoin.
///
/// The reader holds the shared latch of the bucket its current page belongs
/// to (lock coupling: the old bucket's latch is released before the next
/// bucket's is acquired, so at most one latch is ever held), which excludes
/// concurrent writers of exactly that bucket. With a snapshot set, pages
/// beyond the snapshot prefix are never opened and the snapshot's tail page
/// exposes only its visible slots. Callers must NOT hold an explicit latch
/// on the buckets they stream — shared_mutex is not reentrant.
class BucketReader {
 public:
  explicit BucketReader(storage::Table* table) : table_(table) {}

  /// Bounds every subsequent range by `snap` (copied).
  void set_snapshot(const storage::TableSnapshot& snap) {
    snapshot_ = snap;
    has_snapshot_ = true;
  }

  /// Positions on pages [first, end). May be called repeatedly (SmaScan
  /// opens one bucket at a time).
  util::Status Open(uint32_t first_page, uint32_t end_page);

  /// Decodes live tuples column-at-a-time into `cols` until the batch
  /// fills or the range is exhausted. Returns whether any rows were
  /// appended.
  util::Result<bool> NextBatch(storage::ColumnBatch* cols);

  /// Drops the page pin and the bucket latch.
  void Close() {
    guard_.Release();
    latch_.Release();
  }

  /// Pages fetched through this reader since construction (cumulative
  /// across Open() calls) — the per-operator pages-read figure the query
  /// profile reports (DESIGN.md §11). Counts fetches, whether they hit
  /// the buffer pool or went to disk.
  uint64_t pages_opened() const { return pages_opened_; }

 private:
  /// Latches `page_`'s bucket (coupling from the previous one), pins the
  /// page, and sets the snapshot-clamped slot count.
  util::Status PinPage();

  storage::Table* table_;
  storage::PageGuard guard_;
  storage::BucketLatchTable::SharedGuard latch_;
  storage::TableSnapshot snapshot_;
  uint64_t pages_opened_ = 0;
  uint64_t latched_bucket_ = 0;
  uint32_t page_ = 0;
  uint32_t page_end_ = 0;
  uint16_t slot_ = 0;
  uint16_t page_count_ = 0;
  bool has_snapshot_ = false;
  bool open_ = false;
};

}  // namespace smadb::exec

#endif  // SMADB_EXEC_BUCKET_SOURCE_H_
