// Tests for HashJoin and the SMA-reduced semi-join operator.

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "exec/gaggr.h"
#include "exec/join.h"
#include "exec/sma_scan.h"
#include "planner/planner.h"
#include "tests/test_util.h"
#include "util/string_util.h"

namespace smadb::exec {
namespace {

using expr::CmpOp;
using expr::Predicate;
using expr::PredicatePtr;
using storage::Rid;
using storage::TupleBuffer;
using storage::TupleRef;
using testing::AddMinMaxSmas;
using testing::ExpectOk;
using testing::MakeSyntheticTable;
using testing::TestDb;
using testing::Unwrap;
using util::Value;

std::vector<std::string> Drain(Operator* op) {
  return testing::DrainRowStrings(op);
}

// -------------------------------------------------------------- HashJoin --

struct JoinFixture : ::testing::Test {
  JoinFixture() : db(8192) {
    // Parent table: (k, d, v, grp, tag); child joins on k % 50.
    parent = MakeSyntheticTable(&db, 50, testing::Layout::kClustered, 3, 1,
                                "parent");
    child = Unwrap(
        db.catalog.CreateTable("child", testing::SyntheticSchema(), {}));
    util::Rng rng(17);
    TupleBuffer t(&child->schema());
    for (int i = 0; i < 400; ++i) {
      const int64_t fk = rng.Uniform(0, 69);  // 0..49 match, 50..69 dangle
      t.SetInt64(0, fk);
      t.SetDate(1, util::Date(static_cast<int32_t>(i)));
      t.SetDecimal(2, util::Decimal(i));
      t.SetString(3, "C");
      t.SetString(4, "MAIL");
      ExpectOk(child->Append(t));
      fk_counts[fk] += 1;
    }
  }

  TestDb db;
  storage::Table* parent = nullptr;
  storage::Table* child = nullptr;
  std::map<int64_t, int> fk_counts;
};

TEST_F(JoinFixture, InnerJoinCardinalityAndContent) {
  auto join = Unwrap(HashJoin::Make(
      std::make_unique<SmaScan>(child, Predicate::True(), nullptr), 0,
      std::make_unique<SmaScan>(parent, Predicate::True(), nullptr), 0));
  // Output schema is the concatenation.
  EXPECT_EQ(join->output_schema().num_fields(),
            child->schema().num_fields() + parent->schema().num_fields());

  size_t expected = 0;
  for (const auto& [fk, n] : fk_counts) {
    if (fk < 50) expected += static_cast<size_t>(n);
  }
  const plan::QueryResult result = Unwrap(plan::RunToCompletion(join.get()));
  size_t rows = 0;
  for (const TupleBuffer& buf : result.rows) {
    const TupleRef row = buf.AsRef();
    ++rows;
    // Join keys agree on both sides.
    EXPECT_EQ(row.GetInt64(0), row.GetInt64(5));
  }
  EXPECT_EQ(rows, expected);
}

TEST_F(JoinFixture, DuplicateBuildKeysProduceCrossProduct) {
  // Join child with itself on the fk column: each row matches
  // fk_counts[fk] rows.
  auto join = Unwrap(HashJoin::Make(
      std::make_unique<SmaScan>(child, Predicate::True(), nullptr), 0,
      std::make_unique<SmaScan>(child, Predicate::True(), nullptr), 0));
  size_t expected = 0;
  for (const auto& [fk, n] : fk_counts) {
    expected += static_cast<size_t>(n) * static_cast<size_t>(n);
  }
  EXPECT_EQ(Drain(join.get()).size(), expected);
}

TEST_F(JoinFixture, JoinFeedsAggregation) {
  // count joined rows per parent grp — exercises GAggr over a join.
  auto join = Unwrap(HashJoin::Make(
      std::make_unique<SmaScan>(child, Predicate::True(), nullptr), 0,
      std::make_unique<SmaScan>(parent, Predicate::True(), nullptr), 0));
  const size_t grp_col = child->schema().num_fields() + 3;
  auto aggr = Unwrap(GAggr::Make(std::move(join), {grp_col},
                                 {AggSpec::Count("n")}));
  const plan::QueryResult result = Unwrap(plan::RunToCompletion(aggr.get()));
  int64_t total = 0;
  for (const TupleBuffer& row : result.rows) total += row.AsRef().GetInt64(1);
  size_t expected = 0;
  for (const auto& [fk, n] : fk_counts) {
    if (fk < 50) expected += static_cast<size_t>(n);
  }
  EXPECT_EQ(static_cast<size_t>(total), expected);
}

TEST_F(JoinFixture, RejectsNonIntegralKeys) {
  EXPECT_FALSE(
      HashJoin::Make(
          std::make_unique<SmaScan>(child, Predicate::True(), nullptr), 3,
          std::make_unique<SmaScan>(parent, Predicate::True(), nullptr), 3)
          .ok());
  EXPECT_FALSE(
      HashJoin::Make(
          std::make_unique<SmaScan>(child, Predicate::True(), nullptr), 99,
          std::make_unique<SmaScan>(parent, Predicate::True(), nullptr), 0)
          .ok());
}

// ------------------------------------------------------------ SmaSemiJoin --

struct SemiJoinOpFixture : ::testing::Test {
  SemiJoinOpFixture() : db(16384) {
    r = MakeSyntheticTable(&db, 4000, testing::Layout::kClustered, 3, 1, "r");
    r_smas = std::make_unique<sma::SmaSet>(r);
    AddMinMaxSmas(r, r_smas.get(), "d");
    s = Unwrap(db.catalog.CreateTable("s", testing::SyntheticSchema(), {}));
    util::Rng rng(5);
    TupleBuffer t(&s->schema());
    for (int i = 0; i < 200; ++i) {
      t.SetInt64(0, i);
      t.SetDate(1, util::Date(static_cast<int32_t>(rng.Uniform(200, 260))));
      t.SetDecimal(2, util::Decimal(1));
      t.SetString(3, "A");
      t.SetString(4, "MAIL");
      ExpectOk(s->Append(t));
    }
  }

  // Brute-force reference semi-join.
  std::vector<std::string> Reference(CmpOp op) {
    std::set<int64_t> s_vals;
    for (uint32_t b = 0; b < s->num_buckets(); ++b) {
      EXPECT_TRUE(s->ForEachTupleInBucket(b, [&](const TupleRef& t, Rid) {
                     s_vals.insert(t.GetRawInt(1));
                   }).ok());
    }
    std::vector<std::string> out;
    for (uint32_t b = 0; b < r->num_buckets(); ++b) {
      EXPECT_TRUE(r->ForEachTupleInBucket(b, [&](const TupleRef& t, Rid) {
                     const int64_t a = t.GetRawInt(1);
                     bool match = false;
                     for (int64_t v : s_vals) {
                       if (expr::CompareInt(a, op, v)) {
                         match = true;
                         break;
                       }
                     }
                     if (!match) return;
                     std::string row;
                     for (size_t c = 0; c < r->schema().num_fields(); ++c) {
                       row += t.GetValue(c).ToString();
                       row += '|';
                     }
                     out.push_back(std::move(row));
                   }).ok());
    }
    return out;
  }

  TestDb db;
  storage::Table* r = nullptr;
  storage::Table* s = nullptr;
  std::unique_ptr<sma::SmaSet> r_smas;
};

TEST_F(SemiJoinOpFixture, MatchesBruteForceForAllOps) {
  for (CmpOp op : {CmpOp::kEq, CmpOp::kNe, CmpOp::kLe, CmpOp::kLt, CmpOp::kGe,
                   CmpOp::kGt}) {
    auto join =
        Unwrap(SmaSemiJoin::Make(r, 1, op, s, 1, r_smas.get()));
    EXPECT_EQ(Drain(join.get()), Reference(op))
        << "op " << static_cast<int>(op);
  }
}

TEST_F(SemiJoinOpFixture, PrunesBucketsWithSmas) {
  auto join = Unwrap(SmaSemiJoin::Make(r, 1, CmpOp::kEq, s, 1, r_smas.get()));
  (void)Drain(join.get());
  EXPECT_GT(join->buckets_pruned(), 0u);
}

TEST_F(SemiJoinOpFixture, WorksWithoutSmas) {
  auto with = Unwrap(SmaSemiJoin::Make(r, 1, CmpOp::kEq, s, 1, r_smas.get()));
  auto without = Unwrap(SmaSemiJoin::Make(r, 1, CmpOp::kEq, s, 1, nullptr));
  EXPECT_EQ(Drain(with.get()), Drain(without.get()));
  EXPECT_EQ(without->buckets_pruned(), 0u);
}

TEST_F(SemiJoinOpFixture, AllMatchBucketsSkipProbing) {
  auto join = Unwrap(SmaSemiJoin::Make(r, 1, CmpOp::kLe, s, 1, r_smas.get()));
  (void)Drain(join.get());
  // Low-d buckets are provably all-matching for d <= max(S).
  EXPECT_GT(join->buckets_unprobed(), 0u);
}

TEST_F(SemiJoinOpFixture, RSidePredicateFiltersAndPrunes) {
  // R restricted to d >= 150: combined with the semi-join reduction, both
  // prunings apply and results match filter-then-probe brute force.
  const expr::PredicatePtr r_pred = Unwrap(expr::Predicate::AtomConst(
      &r->schema(), "d", CmpOp::kGe, Value::MakeDate(util::Date(150))));
  auto join = Unwrap(SmaSemiJoin::Make(r, 1, CmpOp::kEq, s, 1, r_smas.get(),
                                       nullptr, r_pred));
  std::vector<std::string> expected;
  for (const std::string& row : Reference(CmpOp::kEq)) {
    // Reference rows serialize d at field index 1.
    const auto fields = util::Split(row, '|');
    const auto d = util::Date::Parse(fields[1]);
    ASSERT_TRUE(d.ok());
    if (d->days() >= 150) expected.push_back(row);
  }
  EXPECT_EQ(Drain(join.get()), expected);
  EXPECT_GT(join->buckets_pruned(), 0u);
}

TEST_F(SemiJoinOpFixture, SSidePredicateShrinksPartnerSet) {
  // Only S tuples with even id count as partners; the filtered minimax
  // must drive the reduction (soundness of all_match depends on it).
  const expr::PredicatePtr s_pred = Unwrap(expr::Predicate::AtomConst(
      &s->schema(), "v", CmpOp::kLe,
      Value::MakeDecimal(util::Decimal(100))));
  for (CmpOp op : {CmpOp::kEq, CmpOp::kLe, CmpOp::kGe}) {
    auto join = Unwrap(SmaSemiJoin::Make(r, 1, op, s, 1, r_smas.get(),
                                         nullptr, nullptr, s_pred));
    // Brute force against the filtered S.
    std::set<int64_t> s_vals;
    for (uint32_t b = 0; b < s->num_buckets(); ++b) {
      ExpectOk(s->ForEachTupleInBucket(b, [&](const TupleRef& t, Rid) {
        if (s_pred->Eval(t)) s_vals.insert(t.GetRawInt(1));
      }));
    }
    std::vector<std::string> expected;
    for (uint32_t b = 0; b < r->num_buckets(); ++b) {
      ExpectOk(r->ForEachTupleInBucket(b, [&](const TupleRef& t, Rid) {
        const int64_t a = t.GetRawInt(1);
        bool match = false;
        for (int64_t v : s_vals) {
          if (expr::CompareInt(a, op, v)) {
            match = true;
            break;
          }
        }
        if (!match) return;
        std::string row;
        for (size_t c = 0; c < r->schema().num_fields(); ++c) {
          row += t.GetValue(c).ToString();
          row += '|';
        }
        expected.push_back(std::move(row));
      }));
    }
    EXPECT_EQ(Drain(join.get()), expected) << static_cast<int>(op);
  }
}

TEST_F(SemiJoinOpFixture, EmptySYieldsNothing) {
  storage::Table* empty = Unwrap(
      db.catalog.CreateTable("s_empty", testing::SyntheticSchema(), {}));
  for (CmpOp op : {CmpOp::kEq, CmpOp::kLe, CmpOp::kNe}) {
    auto join = Unwrap(SmaSemiJoin::Make(r, 1, op, empty, 1, r_smas.get()));
    EXPECT_TRUE(Drain(join.get()).empty());
  }
}

// The S pass is governed: a cancelled query stops at its first batch
// instead of reading all of S first.
TEST_F(SemiJoinOpFixture, CancelledQueryStopsInTheSPass) {
  storage::Table* big_s = MakeSyntheticTable(
      &db, 20000, testing::Layout::kRandom, 9, 1, "s_cancel");
  auto join =
      Unwrap(SmaSemiJoin::Make(r, 0, CmpOp::kEq, big_s, 0, r_smas.get()));
  util::QueryContext ctx;
  ctx.cancel()->Cancel();
  join->BindContext(&ctx);
  const auto fetches = [&] {
    const storage::PoolStats st = db.pool.stats();
    return st.hits + st.misses;
  };
  const uint64_t before = fetches();
  EXPECT_EQ(join->Init().code(), util::StatusCode::kCancelled);
  EXPECT_LT(fetches() - before, big_s->num_pages());
}

// The S value set (= / != probing) is charged to the query's budget under
// the operator's own name.
TEST_F(SemiJoinOpFixture, SValueSetIsChargedToTheBudget) {
  storage::Table* big_s = MakeSyntheticTable(
      &db, 20000, testing::Layout::kRandom, 9, 1, "s_budget");
  auto join =
      Unwrap(SmaSemiJoin::Make(r, 0, CmpOp::kEq, big_s, 0, r_smas.get()));
  // Room for the S pass's one-column batch, not for 20000 set entries.
  util::QueryContext ctx(/*global_memory=*/nullptr,
                         /*memory_limit=*/64 * 1024);
  join->BindContext(&ctx);
  const util::Status st = join->Init();
  EXPECT_EQ(st.code(), util::StatusCode::kResourceExhausted);
  EXPECT_NE(st.message().find("component 'SmaSemiJoin'"), std::string::npos)
      << st.ToString();
}

// explain analyze shows the semi-join as its consumer's child, with the
// pages it read and the buckets the reduction spared.
TEST_F(SemiJoinOpFixture, ProfileNodeReportsPagesAndPrunedBuckets) {
  auto join = Unwrap(SmaSemiJoin::Make(r, 1, CmpOp::kEq, s, 1, r_smas.get()));
  const SmaSemiJoin* semi = join.get();
  auto aggr = Unwrap(GAggr::Make(std::move(join), {}, {AggSpec::Count("n")}));
  obs::QueryProfile profile;
  util::QueryContext ctx;
  ctx.set_profile(&profile);
  aggr->BindContext(&ctx);
  const plan::QueryResult result =
      Unwrap(plan::RunToCompletion(aggr.get(), &ctx));
  ASSERT_EQ(profile.roots().size(), 1u);
  const obs::OperatorProfile* root = profile.roots()[0];
  EXPECT_EQ(root->name(), "GAggr");
  ASSERT_EQ(root->children().size(), 1u);
  const obs::OperatorProfile* node = root->children()[0];
  EXPECT_EQ(node->name(), "SmaSemiJoin");
  EXPECT_GT(node->pages_read(), 0u);
  EXPECT_GT(semi->buckets_pruned(), 0u);
  EXPECT_NE(node->detail().find(util::Format(
                "pruned=%llu unprobed=%llu",
                static_cast<unsigned long long>(semi->buckets_pruned()),
                static_cast<unsigned long long>(semi->buckets_unprobed()))),
            std::string::npos)
      << node->detail();
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(node->rows(),
            static_cast<uint64_t>(result.rows[0].AsRef().GetInt64(0)));
}

}  // namespace
}  // namespace smadb::exec
