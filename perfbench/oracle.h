// Independent answer oracle.
//
// Computes the benchmark's query answers straight from the generated
// LINEITEM rows in plain C++, with its own fixed-point arithmetic, so a
// wrong answer from the engine cannot be masked by a shared bug: nothing
// here calls into expr/, exec/, storage/, sma/ or planner/. It also builds
// the SQL text of each query and parses the engine's text replies.

#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "tpch/dbgen.h"

namespace perfbench {

/// The LINEITEM columns the benchmark's queries read; money and quantity
/// in hundredths, dates in days since 1970-01-01.
struct OracleRow {
  int64_t quantity = 0;
  int64_t price = 0;
  int64_t discount = 0;
  int64_t tax = 0;
  int32_t shipdate = 0;
  char returnflag = ' ';
  char linestatus = ' ';
};

OracleRow ToOracleRow(const smadb::tpch::LineItemRow& row);

/// decimal(.,2) product rounded half away from zero to two digits.
int64_t MulCents(int64_t a, int64_t b);

enum class QueryKind { kQ1, kQ6, kWindow, kTotals };

/// One statement of the query stream with the parameters it was made from.
struct Query {
  QueryKind kind = QueryKind::kQ1;
  int q1_delta = 90;        ///< Q1: days before 1998-12-01
  int q6_year = 1994;       ///< Q6: shipdate year
  int q6_discount = 6;      ///< Q6: discount in hundredths, +-1
  int q6_quantity = 24;     ///< Q6: quantity upper bound (exclusive)
  std::string sql;
};

Query MakeQ1(int delta);
Query MakeQ6(int year, int discount, int quantity);
Query MakeWindow(int32_t from_days);
Query MakeTotals();

/// Q1 answer of one (returnflag, linestatus) group.
struct Q1Group {
  int64_t sum_qty = 0;
  int64_t sum_base_price = 0;
  int64_t sum_disc_price = 0;
  int64_t sum_charge = 0;
  int64_t sum_disc = 0;
  int64_t count = 0;
};
using Q1Answer = std::map<std::pair<char, char>, Q1Group>;

/// A single-row `sum, count` answer.
struct SumCount {
  int64_t sum = 0;
  int64_t count = 0;
  bool operator==(const SumCount&) const = default;
};

Q1Answer OracleQ1(const std::vector<OracleRow>& rows, int delta);
SumCount OracleQ6(const std::vector<OracleRow>& rows, int year, int discount,
                  int quantity);
/// sum(l_quantity), count(*) where l_shipdate >= from_days.
SumCount OracleWindow(const std::vector<OracleRow>& rows, int32_t from_days);

/// Checks a Q1 reply (header line plus one line per group). Sums and
/// counts must match to the cent; averages to the printed precision.
bool CheckQ1Reply(const std::vector<std::string>& lines,
                  const Q1Answer& expected, std::string* why);

/// Parses a `sum | count` reply (header line plus one row).
bool ParseSumCount(const std::vector<std::string>& lines, SumCount* out,
                   std::string* why);

/// Parses "-12.34" into hundredths.
bool ParseCents(const std::string& text, int64_t* cents);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
