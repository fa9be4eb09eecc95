// Hierarchical (two-level) SMAs, paper §4.
//
// "Every SMA-file is again partitioned into buckets and for each bucket a
// second level SMA is computed. ... If a second level bucket qualifies or
// disqualifies, the first level SMA-file need not to be accessed, which
// saves some I/O. If the second level bucket is ambivalent, then the first
// level SMA-file can be exploited to inspect the situation at a finer
// grain. Since second level SMA-files will be very small we do not think
// that higher levels are useful."
//
// We summarize each *page* of the first-level min (resp. max) SMA-file by
// its minimum (resp. maximum): one level-2 entry covers up to 1024 buckets.
//
// Experiment-only: the X2 benchmark (bench_x2_hierarchical) and
// examples/sma_tuning build and measure it directly; no planner or
// operator path grades through it.

#ifndef SMADB_SMA_HIERARCHICAL_H_
#define SMADB_SMA_HIERARCHICAL_H_

#include <memory>
#include <vector>

#include "expr/predicate.h"
#include "sma/grade.h"
#include "sma/sma.h"

namespace smadb::sma {

/// Two-level min/max pair over one column. Built from existing ungrouped
/// min & max SMAs; the second level lives in its own (tiny) SMA-files.
class HierarchicalMinMax {
 public:
  /// `min_sma` / `max_sma` must be ungrouped min/max SMAs of one table.
  static util::Result<std::unique_ptr<HierarchicalMinMax>> Build(
      const Sma* min_sma, const Sma* max_sma);

  /// Grades every bucket for the atom `column op c`, reading first-level
  /// SMA pages only where the second level is ambivalent. Returns the
  /// number of first-level pages actually read via `l1_pages_read` (the
  /// quantity §4's argument is about).
  util::Status GradeAll(expr::CmpOp op, int64_t c, std::vector<Grade>* grades,
                        uint64_t* l1_pages_read) const;

  /// Single-level reference: grades every bucket reading all L1 pages.
  util::Status GradeAllFlat(expr::CmpOp op, int64_t c,
                            std::vector<Grade>* grades,
                            uint64_t* l1_pages_read) const;

  const SmaFile* level2_min() const { return l2_min_.get(); }
  const SmaFile* level2_max() const { return l2_max_.get(); }
  uint64_t num_buckets() const { return min_sma_->num_buckets(); }

 private:
  HierarchicalMinMax(const Sma* min_sma, const Sma* max_sma)
      : min_sma_(min_sma), max_sma_(max_sma) {}

  const Sma* min_sma_;
  const Sma* max_sma_;
  std::unique_ptr<SmaFile> l2_min_;
  std::unique_ptr<SmaFile> l2_max_;
};

}  // namespace smadb::sma

#endif  // SMADB_SMA_HIERARCHICAL_H_
