// Columnar batches and selection vectors: the storage-side half of the
// vectorized execution path (DESIGN.md §9).
//
// A ColumnBatch holds the decoded columns of up to `capacity` tuples from
// one bucket, one typed vector per projected column: the integral family
// (int32/int64/date/decimal) widens to raw int64 payloads — the same
// uniform representation TupleRef::GetRawInt and the SMA layer use — so
// predicate and aggregate kernels run one int64 loop regardless of the
// declared width. Doubles keep their own vector; strings are stored as
// capacity-strided zero-padded byte runs (the on-page representation),
// which makes equality a memcmp.
//
// A SelVector names the rows of a batch that survive predicate evaluation:
// either *dense* ("all n rows", the state a qualifying bucket's grade maps
// to without looking at a single value) or an explicit sorted index list.
// Operators refine it in place (Filter for AND-composition, UnionWith for
// OR) so downstream kernels only ever visit surviving rows.

#ifndef SMADB_STORAGE_COLUMN_BATCH_H_
#define SMADB_STORAGE_COLUMN_BATCH_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "storage/schema.h"
#include "storage/tuple.h"
#include "util/dcheck.h"
#include "util/value.h"

namespace smadb::storage {

class Table;
struct Page;

/// The rows of a batch a predicate has (so far) kept. Indices are row
/// numbers within one ColumnBatch, always sorted ascending and unique.
class SelVector {
 public:
  /// All `n` rows selected, without materializing indices — the form a
  /// qualifying bucket grade produces for free.
  void SelectAll(uint32_t n) {
    dense_ = true;
    n_ = n;
    idx_.clear();
  }
  void SelectNone() {
    dense_ = false;
    n_ = 0;
    idx_.clear();
  }

  bool dense() const { return dense_; }
  size_t count() const { return dense_ ? n_ : idx_.size(); }
  bool empty() const { return count() == 0; }

  /// The `k`-th selected row (k < count()).
  uint32_t row(size_t k) const {
    return dense_ ? static_cast<uint32_t>(k) : idx_[k];
  }

  /// Explicit index list; only meaningful when !dense().
  const std::vector<uint32_t>& indices() const {
    SMADB_DCHECK(!dense_);
    return idx_;
  }

  /// Keeps only rows for which `keep(row)` holds (AND-refinement). Stays
  /// dense when every row survives, so fully-selective predicates cost no
  /// index materialization.
  template <typename Keep>
  void Filter(Keep keep) {
    if (dense_) {
      uint32_t r = 0;
      while (r < n_ && keep(r)) ++r;
      if (r == n_) return;  // all rows pass; stay dense
      idx_.clear();
      idx_.reserve(n_);
      for (uint32_t i = 0; i < r; ++i) idx_.push_back(i);
      for (uint32_t i = r + 1; i < n_; ++i) {
        if (keep(i)) idx_.push_back(i);
      }
      dense_ = false;
      n_ = 0;
      return;
    }
    size_t w = 0;
    for (size_t k = 0; k < idx_.size(); ++k) {
      if (keep(idx_[k])) idx_[w++] = idx_[k];
    }
    idx_.resize(w);
  }

  /// Merges another selection over the same batch into this one
  /// (OR-composition). Both lists are sorted, so this is a two-pointer
  /// merge; a dense side absorbs the other.
  void UnionWith(const SelVector& o) {
    if (dense_) return;
    if (o.dense_) {
      *this = o;
      return;
    }
    std::vector<uint32_t> merged;
    merged.reserve(idx_.size() + o.idx_.size());
    size_t a = 0, b = 0;
    while (a < idx_.size() && b < o.idx_.size()) {
      if (idx_[a] < o.idx_[b]) {
        merged.push_back(idx_[a++]);
      } else if (idx_[a] > o.idx_[b]) {
        merged.push_back(o.idx_[b++]);
      } else {
        merged.push_back(idx_[a]);
        ++a;
        ++b;
      }
    }
    while (a < idx_.size()) merged.push_back(idx_[a++]);
    while (b < o.idx_.size()) merged.push_back(o.idx_[b++]);
    idx_.swap(merged);
  }

 private:
  bool dense_ = false;
  uint32_t n_ = 0;                // row count when dense
  std::vector<uint32_t> idx_;     // sorted row indices when not dense
};

/// Decoded columns of up to `capacity` tuples. Reused across buckets:
/// Configure once, Clear per refill. Only projected columns are decoded;
/// touching an unprojected column is a programming error (DCHECK).
class ColumnBatch {
 public:
  /// Prepares the batch for `schema` with room for `capacity` rows.
  /// `projection` selects the columns to decode (empty = all columns); it
  /// must cover every column the consumer's predicates and expressions
  /// read.
  void Configure(const Schema* schema, size_t capacity,
                 std::vector<bool> projection = {});

  /// Drops all rows, keeping configuration and vector capacity.
  void Clear();

  const Schema& schema() const { return *schema_; }
  bool configured() const { return schema_ != nullptr; }
  size_t num_rows() const { return num_rows_; }
  size_t capacity() const { return capacity_; }
  bool full() const { return num_rows_ >= capacity_; }
  bool decoded(size_t col) const { return decoded_[col]; }
  const std::vector<bool>& projection() const { return decoded_; }

  /// Appends one tuple, decoding the projected columns (the emit path of
  /// operators that materialize rows: Sort, GAggr, BucketAggr, HashJoin).
  void AppendRow(const TupleRef& t);

  /// Bulk-decodes the live tuples of `page` (a data page of `table`, whose
  /// schema must match Configure's), starting at `first_slot`, stopping at
  /// `end_slot` or when the batch is full. Gathers column-at-a-time: one
  /// tight strided loop per projected column. Returns the first slot NOT
  /// consumed (== end_slot when the page is exhausted).
  uint16_t AppendFromPage(const Table& table, const Page& page,
                          uint16_t first_slot, uint16_t end_slot);

  /// Raw int64 payloads of an integral-family column (cents / days / ints),
  /// one per row.
  const int64_t* Ints(size_t col) const {
    SMADB_DCHECK(decoded_[col]);
    SMADB_DCHECK(schema_->field(col).type != util::TypeId::kDouble &&
                 schema_->field(col).type != util::TypeId::kString);
    return cols_[col].i64.data();
  }
  const double* Doubles(size_t col) const {
    SMADB_DCHECK(decoded_[col]);
    SMADB_DCHECK(schema_->field(col).type == util::TypeId::kDouble);
    return cols_[col].f64.data();
  }
  /// Zero-padded fixed-capacity string payloads, `capacity` bytes per row.
  const uint8_t* StringData(size_t col) const {
    SMADB_DCHECK(decoded_[col]);
    SMADB_DCHECK(schema_->field(col).type == util::TypeId::kString);
    return cols_[col].str.data();
  }
  std::string_view StringAt(size_t col, size_t row) const;

  /// Generic accessor; produces the same Value as TupleRef::GetValue on the
  /// source tuple (group keys serialized from either path must agree).
  util::Value GetValue(size_t col, size_t row) const;

  /// Re-materializes row `row` into `out` (schema must match). Requires a
  /// full projection — how Sort, the HashJoin build side and
  /// RunToCompletion keep rows.
  void MaterializeRow(size_t row, TupleBuffer* out) const;

  /// Estimated heap footprint of a configured batch: the bytes Configure
  /// reserves for the projected columns. Operators charge this against the
  /// query's MemoryTracker once per Configure (DESIGN.md §10).
  size_t ApproxBytes() const;

 private:
  /// Per-column storage; only the member matching the column type is used.
  struct ColumnVector {
    std::vector<int64_t> i64;
    std::vector<double> f64;
    std::vector<uint8_t> str;  // capacity-strided zero-padded bytes
  };

  const Schema* schema_ = nullptr;
  size_t capacity_ = 0;
  size_t num_rows_ = 0;
  std::vector<bool> decoded_;
  std::vector<ColumnVector> cols_;
  std::vector<uint16_t> live_slots_;  // per-page scratch for AppendFromPage
};

}  // namespace smadb::storage

#endif  // SMADB_STORAGE_COLUMN_BATCH_H_
