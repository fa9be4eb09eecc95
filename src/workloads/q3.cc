#include "workloads/q3.h"

#include "exec/gaggr.h"
#include "exec/join.h"
#include "exec/sma_scan.h"
#include "exec/sort.h"
#include "expr/parser.h"
#include "sma/builder.h"
#include "tpch/schemas.h"
#include "util/date.h"

namespace smadb::workloads {

using exec::AggSpec;
using exec::Operator;
using expr::CmpOp;
using expr::Predicate;
using expr::PredicatePtr;
using storage::Table;
using util::Result;
using util::Status;
using util::Value;

Status BuildQ3Smas(Table* orders, sma::SmaSet* orders_smas, Table* lineitem,
                   sma::SmaSet* lineitem_smas) {
  const auto ensure = [](Table* table, sma::SmaSet* smas,
                         const char* col) -> Status {
    const std::string min_name = std::string("min_") + col;
    const std::string max_name = std::string("max_") + col;
    SMADB_ASSIGN_OR_RETURN(size_t idx, table->schema().FieldIndex(col));
    if (smas->FindMinMax(sma::AggFunc::kMin, idx) == nullptr) {
      SMADB_ASSIGN_OR_RETURN(
          auto sma,
          sma::BuildSma(table, sma::SmaSpec::Min(
                                   min_name,
                                   expr::ColumnAt(&table->schema(), idx))));
      SMADB_RETURN_NOT_OK(smas->Add(std::move(sma)));
    }
    if (smas->FindMinMax(sma::AggFunc::kMax, idx) == nullptr) {
      SMADB_ASSIGN_OR_RETURN(
          auto sma,
          sma::BuildSma(table, sma::SmaSpec::Max(
                                   max_name,
                                   expr::ColumnAt(&table->schema(), idx))));
      SMADB_RETURN_NOT_OK(smas->Add(std::move(sma)));
    }
    return Status::OK();
  };
  SMADB_RETURN_NOT_OK(ensure(orders, orders_smas, "o_orderdate"));
  SMADB_RETURN_NOT_OK(ensure(lineitem, lineitem_smas, "l_shipdate"));
  return Status::OK();
}

Result<std::unique_ptr<Operator>> MakeQ3Plan(const Q3Tables& tables,
                                             std::string_view segment,
                                             std::string_view cutoff_date,
                                             size_t limit) {
  SMADB_ASSIGN_OR_RETURN(util::Date cutoff, util::Date::Parse(cutoff_date));

  // customer: mktsegment = '<segment>'
  SMADB_ASSIGN_OR_RETURN(
      PredicatePtr cust_pred,
      Predicate::AtomString(&tables.customer->schema(), "c_mktsegment",
                            CmpOp::kEq, std::string(segment)));
  std::unique_ptr<Operator> cust =
      std::make_unique<exec::SmaScan>(tables.customer, cust_pred, nullptr);

  // orders: o_orderdate < cutoff (SMA-pruned when SMAs are supplied).
  SMADB_ASSIGN_OR_RETURN(
      PredicatePtr ord_pred,
      Predicate::AtomConst(&tables.orders->schema(), "o_orderdate",
                           CmpOp::kLt, Value::MakeDate(cutoff)));
  std::unique_ptr<Operator> ord = std::make_unique<exec::SmaScan>(
      tables.orders, ord_pred, tables.orders_smas);

  // lineitem: l_shipdate > cutoff.
  SMADB_ASSIGN_OR_RETURN(
      PredicatePtr li_pred,
      Predicate::AtomConst(&tables.lineitem->schema(), "l_shipdate",
                           CmpOp::kGt, Value::MakeDate(cutoff)));
  std::unique_ptr<Operator> li = std::make_unique<exec::SmaScan>(
      tables.lineitem, li_pred, tables.lineitem_smas);

  // orders ⋈ customer on custkey (small build side: filtered customers).
  SMADB_ASSIGN_OR_RETURN(
      std::unique_ptr<exec::HashJoin> oc,
      exec::HashJoin::Make(std::move(ord), tpch::orders::kCustKey,
                           std::move(cust), tpch::customer::kCustKey));

  // lineitem ⋈ (orders ⋈ customer) on orderkey.
  SMADB_ASSIGN_OR_RETURN(
      std::unique_ptr<exec::HashJoin> loc,
      exec::HashJoin::Make(std::move(li), tpch::lineitem::kOrderKey,
                           std::move(oc), tpch::orders::kOrderKey));

  // Aggregate: group by l_orderkey, o_orderdate, o_shippriority.
  const storage::Schema& js = loc->output_schema();
  const size_t li_fields = tables.lineitem->schema().num_fields();
  const size_t orderkey_col = tpch::lineitem::kOrderKey;
  const size_t orderdate_col = li_fields + tpch::orders::kOrderDate;
  const size_t shipprio_col = li_fields + tpch::orders::kShipPriority;
  SMADB_ASSIGN_OR_RETURN(
      expr::ExprPtr revenue,
      expr::ParseExpr(&js, "l_extendedprice * (1.00 - l_discount)"));
  SMADB_ASSIGN_OR_RETURN(
      std::unique_ptr<exec::GAggr> aggr,
      exec::GAggr::Make(std::move(loc),
                        {orderkey_col, orderdate_col, shipprio_col},
                        {AggSpec::Sum(revenue, "revenue")}));

  // order by revenue desc, o_orderdate; limit.
  SMADB_ASSIGN_OR_RETURN(
      std::unique_ptr<exec::Sort> sorted,
      exec::Sort::Make(std::move(aggr),
                       {exec::SortKey{3, /*descending=*/true},
                        exec::SortKey{1, /*descending=*/false}},
                       limit));
  return std::unique_ptr<Operator>(std::move(sorted));
}

Result<std::unique_ptr<Operator>> MakeQ4Plan(Table* orders, Table* lineitem,
                                             const sma::SmaSet* orders_smas,
                                             std::string_view start_date) {
  SMADB_ASSIGN_OR_RETURN(util::Date start, util::Date::Parse(start_date));
  const util::Date end = start.AddDays(91);  // "+ interval '3' month"

  SMADB_ASSIGN_OR_RETURN(
      PredicatePtr lo,
      Predicate::AtomConst(&orders->schema(), "o_orderdate", CmpOp::kGe,
                           Value::MakeDate(start)));
  SMADB_ASSIGN_OR_RETURN(
      PredicatePtr hi,
      Predicate::AtomConst(&orders->schema(), "o_orderdate", CmpOp::kLt,
                           Value::MakeDate(end)));
  const PredicatePtr r_pred = Predicate::And(lo, hi);

  SMADB_ASSIGN_OR_RETURN(
      PredicatePtr s_pred,
      Predicate::AtomTwoCols(&lineitem->schema(), "l_commitdate", CmpOp::kLt,
                             "l_receiptdate"));

  SMADB_ASSIGN_OR_RETURN(
      std::unique_ptr<exec::SmaSemiJoin> semi,
      exec::SmaSemiJoin::Make(orders, tpch::orders::kOrderKey, CmpOp::kEq,
                              lineitem, tpch::lineitem::kOrderKey,
                              orders_smas, /*s_smas=*/nullptr, r_pred,
                              s_pred));

  SMADB_ASSIGN_OR_RETURN(
      std::unique_ptr<exec::GAggr> aggr,
      exec::GAggr::Make(std::move(semi), {tpch::orders::kOrderPriority},
                        {AggSpec::Count("order_count")}));
  return std::unique_ptr<Operator>(std::move(aggr));
}

}  // namespace smadb::workloads
