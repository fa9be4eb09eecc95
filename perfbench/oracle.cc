#include "oracle.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/date.h"

namespace perfbench {

namespace {

int32_t Days(int y, int m, int d) {
  return smadb::util::Date::FromYmd(y, m, d).days();
}

std::string DateLiteral(int32_t days) {
  return "date '" + smadb::util::Date(days).ToString() + "'";
}

std::string CentsLiteral(int64_t cents) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld.%02lld",
                static_cast<long long>(cents / 100),
                static_cast<long long>(cents % 100));
  return buf;
}

// Splits a result line on the " | " column separator.
std::vector<std::string> Columns(const std::string& line) {
  std::vector<std::string> out;
  size_t start = 0;
  for (;;) {
    const size_t bar = line.find(" | ", start);
    if (bar == std::string::npos) {
      out.push_back(line.substr(start));
      return out;
    }
    out.push_back(line.substr(start, bar - start));
    start = bar + 3;
  }
}

bool ParseCount(const std::string& text, int64_t* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  if (*end != '\0') return false;
  *out = v;
  return true;
}

// An average printed by the engine must equal sum/count to the six
// significant digits it is printed with.
bool AvgMatches(const std::string& text, int64_t sum_cents, int64_t count) {
  char* end = nullptr;
  const double got = std::strtod(text.c_str(), &end);
  if (*end != '\0' || count == 0) return false;
  const double want =
      static_cast<double>(sum_cents) / 100.0 / static_cast<double>(count);
  return std::fabs(got - want) <= 1e-5 * std::fabs(want) + 1e-12;
}

}  // namespace

OracleRow ToOracleRow(const smadb::tpch::LineItemRow& row) {
  OracleRow r;
  r.quantity = row.quantity.cents();
  r.price = row.extendedprice.cents();
  r.discount = row.discount.cents();
  r.tax = row.tax.cents();
  r.shipdate = row.shipdate.days();
  r.returnflag = row.returnflag;
  r.linestatus = row.linestatus;
  return r;
}

int64_t MulCents(int64_t a, int64_t b) {
  const int64_t raw = a * b;  // four fractional digits
  return (raw + (raw >= 0 ? 50 : -50)) / 100;
}

Query MakeQ1(int delta) {
  Query q;
  q.kind = QueryKind::kQ1;
  q.q1_delta = delta;
  q.sql =
      "select l_returnflag, l_linestatus, sum(l_quantity) as sum_qty, "
      "sum(l_extendedprice) as sum_base_price, "
      "sum(l_extendedprice * (1.00 - l_discount)) as sum_disc_price, "
      "sum(l_extendedprice * (1.00 - l_discount) * (1.00 + l_tax)) "
      "as sum_charge, avg(l_quantity) as avg_qty, "
      "avg(l_extendedprice) as avg_price, avg(l_discount) as avg_disc, "
      "count(*) as count_order from lineitem where l_shipdate <= " +
      DateLiteral(Days(1998, 12, 1) - delta) +
      " group by l_returnflag, l_linestatus";
  return q;
}

Query MakeQ6(int year, int discount, int quantity) {
  Query q;
  q.kind = QueryKind::kQ6;
  q.q6_year = year;
  q.q6_discount = discount;
  q.q6_quantity = quantity;
  q.sql = "select sum(l_extendedprice * l_discount) as revenue, "
          "count(*) as n from lineitem where l_shipdate >= " +
          DateLiteral(Days(year, 1, 1)) + " and l_shipdate < " +
          DateLiteral(Days(year + 1, 1, 1)) + " and l_discount >= " +
          CentsLiteral(discount - 1) + " and l_discount <= " +
          CentsLiteral(discount + 1) + " and l_quantity < " +
          std::to_string(quantity);
  return q;
}

Query MakeWindow(int32_t from_days) {
  Query q;
  q.kind = QueryKind::kWindow;
  q.sql = "select sum(l_quantity) as qty, count(*) as n from lineitem "
          "where l_shipdate >= " +
          DateLiteral(from_days);
  return q;
}

Query MakeTotals() {
  Query q;
  q.kind = QueryKind::kTotals;
  q.sql = "select sum(l_quantity) as qty, count(*) as n from lineitem";
  return q;
}

Q1Answer OracleQ1(const std::vector<OracleRow>& rows, int delta) {
  const int32_t cutoff = Days(1998, 12, 1) - delta;
  Q1Answer out;
  for (const OracleRow& r : rows) {
    if (r.shipdate > cutoff) continue;
    Q1Group& g = out[{r.returnflag, r.linestatus}];
    const int64_t disc_price = MulCents(r.price, 100 - r.discount);
    g.sum_qty += r.quantity;
    g.sum_base_price += r.price;
    g.sum_disc_price += disc_price;
    g.sum_charge += MulCents(disc_price, 100 + r.tax);
    g.sum_disc += r.discount;
    ++g.count;
  }
  return out;
}

SumCount OracleQ6(const std::vector<OracleRow>& rows, int year, int discount,
                  int quantity) {
  const int32_t lo = Days(year, 1, 1);
  const int32_t hi = Days(year + 1, 1, 1);
  SumCount out;
  for (const OracleRow& r : rows) {
    if (r.shipdate < lo || r.shipdate >= hi) continue;
    if (r.discount < discount - 1 || r.discount > discount + 1) continue;
    if (r.quantity >= static_cast<int64_t>(quantity) * 100) continue;
    out.sum += MulCents(r.price, r.discount);
    ++out.count;
  }
  return out;
}

SumCount OracleWindow(const std::vector<OracleRow>& rows, int32_t from_days) {
  SumCount out;
  for (const OracleRow& r : rows) {
    if (r.shipdate < from_days) continue;
    out.sum += r.quantity;
    ++out.count;
  }
  return out;
}

bool ParseCents(const std::string& text, int64_t* cents) {
  const bool neg = !text.empty() && text[0] == '-';
  const size_t dot = text.find('.');
  if (dot == std::string::npos || dot == (neg ? 1u : 0u) ||
      text.size() != dot + 3) {
    return false;
  }
  int64_t whole = 0;
  for (size_t i = neg ? 1 : 0; i < dot; ++i) {
    if (text[i] < '0' || text[i] > '9') return false;
    whole = whole * 10 + (text[i] - '0');
  }
  int64_t frac = 0;
  for (size_t i = dot + 1; i < text.size(); ++i) {
    if (text[i] < '0' || text[i] > '9') return false;
    frac = frac * 10 + (text[i] - '0');
  }
  *cents = (neg ? -1 : 1) * (whole * 100 + frac);
  return true;
}

bool CheckQ1Reply(const std::vector<std::string>& lines,
                  const Q1Answer& expected, std::string* why) {
  if (lines.size() != expected.size() + 1) {
    *why = "Q1: " + std::to_string(lines.size() - (lines.empty() ? 0 : 1)) +
           " groups, want " + std::to_string(expected.size());
    return false;
  }
  for (size_t i = 1; i < lines.size(); ++i) {
    const std::vector<std::string> c = Columns(lines[i]);
    if (c.size() != 10 || c[0].size() != 1 || c[1].size() != 1) {
      *why = "Q1: malformed row '" + lines[i] + "'";
      return false;
    }
    const auto it = expected.find({c[0][0], c[1][0]});
    if (it == expected.end()) {
      *why = "Q1: unexpected group '" + lines[i] + "'";
      return false;
    }
    const Q1Group& g = it->second;
    int64_t qty, base, disc_price, charge, count;
    const bool parsed = ParseCents(c[2], &qty) && ParseCents(c[3], &base) &&
                        ParseCents(c[4], &disc_price) &&
                        ParseCents(c[5], &charge) && ParseCount(c[9], &count);
    if (!parsed || qty != g.sum_qty || base != g.sum_base_price ||
        disc_price != g.sum_disc_price || charge != g.sum_charge ||
        count != g.count || !AvgMatches(c[6], g.sum_qty, g.count) ||
        !AvgMatches(c[7], g.sum_base_price, g.count) ||
        !AvgMatches(c[8], g.sum_disc, g.count)) {
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    " want qty %lld base %lld disc_price %lld charge %lld "
                    "count %lld",
                    static_cast<long long>(g.sum_qty),
                    static_cast<long long>(g.sum_base_price),
                    static_cast<long long>(g.sum_disc_price),
                    static_cast<long long>(g.sum_charge),
                    static_cast<long long>(g.count));
      *why = "Q1: mismatch '" + lines[i] + "'" + buf;
      return false;
    }
  }
  return true;
}

bool ParseSumCount(const std::vector<std::string>& lines, SumCount* out,
                   std::string* why) {
  if (lines.size() != 2) {
    *why = "sum/count: " + std::to_string(lines.size()) + " lines, want 2";
    return false;
  }
  const std::vector<std::string> c = Columns(lines[1]);
  if (c.size() != 2 || !ParseCents(c[0], &out->sum) ||
      !ParseCount(c[1], &out->count)) {
    *why = "sum/count: malformed row '" + lines[1] + "'";
    return false;
  }
  return true;
}

}  // namespace perfbench
