// TPC-D Query 3 ("shipping priority"): the multi-table workload, showing
// that SMAs keep paying off inside join pipelines — the date-restricted
// scans of ORDERS and LINEITEM are SMA-prunable even though the query as a
// whole is a 3-way join.
//
//   select l_orderkey, sum(l_extendedprice*(1-l_discount)) as revenue,
//          o_orderdate, o_shippriority
//   from customer, orders, lineitem
//   where c_mktsegment = 'BUILDING' and c_custkey = o_custkey
//     and l_orderkey = o_orderkey and o_orderdate < date '1995-03-15'
//     and l_shipdate > date '1995-03-15'
//   group by l_orderkey, o_orderdate, o_shippriority
//   order by revenue desc, o_orderdate
//   limit 10

#ifndef SMADB_WORKLOADS_Q3_H_
#define SMADB_WORKLOADS_Q3_H_

#include <memory>

#include "exec/operator.h"
#include "sma/sma_set.h"
#include "storage/table.h"

namespace smadb::workloads {

struct Q3Tables {
  storage::Table* customer = nullptr;
  storage::Table* orders = nullptr;
  storage::Table* lineitem = nullptr;
  /// Optional selection SMAs; null pointers disable pruning on that table.
  const sma::SmaSet* orders_smas = nullptr;
  const sma::SmaSet* lineitem_smas = nullptr;
};

/// Builds the Q3 operator tree. Every leaf is an SMA_Scan; those without
/// an SMA set (always CUSTOMER) grade every bucket ambivalent, i.e. scan
/// sequentially.
util::Result<std::unique_ptr<exec::Operator>> MakeQ3Plan(
    const Q3Tables& tables, std::string_view segment = "BUILDING",
    std::string_view cutoff_date = "1995-03-15", size_t limit = 10);

/// Builds the selection SMAs Q3 exploits: min/max(o_orderdate) on ORDERS
/// and min/max(l_shipdate) on LINEITEM (the latter may already exist from
/// the Fig. 4 set; reuse is automatic).
util::Status BuildQ3Smas(storage::Table* orders, sma::SmaSet* orders_smas,
                         storage::Table* lineitem,
                         sma::SmaSet* lineitem_smas);

/// TPC-D Query 4 ("order priority checking") — an EXISTS query realized as
/// the §4 SMA semi-join:
///
///   select o_orderpriority, count(*) as order_count
///   from orders
///   where o_orderdate >= date 'start' and o_orderdate < start + 3 months
///     and exists (select * from lineitem
///                 where l_orderkey = o_orderkey
///                   and l_commitdate < l_receiptdate)
///   group by o_orderpriority
///
/// The date restriction is graded against ORDERS' SMAs inside the semi-join
/// operator; the EXISTS side filters LINEITEM with the two-column atom
/// l_commitdate < l_receiptdate.
util::Result<std::unique_ptr<exec::Operator>> MakeQ4Plan(
    storage::Table* orders, storage::Table* lineitem,
    const sma::SmaSet* orders_smas, std::string_view start_date = "1993-07-01");

}  // namespace smadb::workloads

#endif  // SMADB_WORKLOADS_Q3_H_
