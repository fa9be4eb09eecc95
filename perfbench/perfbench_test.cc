// Tests of the benchmark's own logic: percentile choice, span self time,
// and the independent oracle against a tiny-scale load of the engine.
//
//   cmake --build .bench_build/perfbench --target perfbench_test
//   .bench_build/perfbench/perfbench_test

#include <gtest/gtest.h>

#include <set>

#include "client.h"
#include "oracle.h"
#include "spans.h"
#include "stats.h"
#include "workload.h"

namespace perfbench {
namespace {

TEST(PercentileTest, P90NeedsOneHundredSamplesForTenBeyond) {
  EXPECT_EQ(MinSamplesFor(0.9, 10), 100u);
  EXPECT_EQ(SamplesBeyond(100, 0.9), 10u);
  EXPECT_LT(SamplesBeyond(99, 0.9), 10u);
  EXPECT_EQ(MinSamplesFor(0.99, 10), 1000u);
  EXPECT_EQ(MinSamplesFor(0.5, 10), 20u);
}

TEST(PercentileTest, HighestSupportedQuantileLeavesTenBeyond) {
  const std::vector<double> qs = {0.5, 0.9, 0.99, 0.999};
  EXPECT_EQ(HighestSupportedQuantile(5, qs, 10), 0.0);
  EXPECT_EQ(HighestSupportedQuantile(20, qs, 10), 0.5);
  EXPECT_EQ(HighestSupportedQuantile(99, qs, 10), 0.5);
  EXPECT_EQ(HighestSupportedQuantile(100, qs, 10), 0.9);
  EXPECT_EQ(HighestSupportedQuantile(999, qs, 10), 0.9);
  EXPECT_EQ(HighestSupportedQuantile(1000, qs, 10), 0.99);
  for (size_t n : {20u, 150u, 4321u, 10000u}) {
    const double q = HighestSupportedQuantile(n, qs, 10);
    EXPECT_GE(SamplesBeyond(n, q), 10u) << n;
  }
}

TEST(PercentileTest, NearestRankQuantile) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  EXPECT_EQ(Quantile(v, 0.5), 50);
  EXPECT_EQ(Quantile(v, 0.9), 90);
  EXPECT_EQ(Quantile(v, 0.99), 99);
  EXPECT_EQ(Quantile(v, 1.0), 100);
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(Quantile({}, 0.5), 0.0);
}

Span MakeSpan(uint64_t id, uint64_t parent, int64_t start, int64_t end) {
  Span s;
  s.name = "x";
  s.id = id;
  s.parent = parent;
  s.request = 1;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

TEST(SelfTimeTest, SubtractsTheUnionOfChildrenClippedToTheParent) {
  const std::vector<Span> spans = {
      MakeSpan(1, 0, 0, 100),   // root
      MakeSpan(2, 1, 10, 30),   // overlaps 3
      MakeSpan(3, 1, 20, 50),
      MakeSpan(4, 1, 90, 120),  // sticks out of the root
      MakeSpan(5, 2, 15, 20),   // grandchild
  };
  const std::map<uint64_t, int64_t> self = SelfTimes(spans);
  EXPECT_EQ(self.at(1), 100 - 40 - 10);
  EXPECT_EQ(self.at(2), 20 - 5);
  EXPECT_EQ(self.at(3), 30);
  EXPECT_EQ(self.at(4), 30);
  EXPECT_EQ(self.at(5), 5);
}

TEST(SelfTimeTest, RecorderKeepsParentsAndRequests) {
  SpanRecorder rec(true);
  const uint64_t req = rec.NewRequest();
  uint64_t child = 0;
  {
    ScopedSpan root(&rec, "root", 0, req);
    ScopedSpan c(&rec, "child", root.id(), req);
    child = c.id();
  }
  const std::vector<Span> spans = rec.Finished();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[1].id, child);
  EXPECT_EQ(spans[1].parent, spans[0].id);
  EXPECT_EQ(spans[0].request, spans[1].request);
  const std::map<uint64_t, int64_t> self = SelfTimes(spans);
  EXPECT_EQ(self.at(spans[0].id),
            spans[0].duration_ns() - spans[1].duration_ns());
  EXPECT_EQ(SelfTimesNamed(spans, self, "child").size(), 1u);

  SpanRecorder off(false);
  EXPECT_EQ(off.Begin("x", 0, 0), 0u);
  off.End(0);
  EXPECT_TRUE(off.Finished().empty());
}

TEST(OracleTest, DecimalArithmeticAndParsing) {
  EXPECT_EQ(MulCents(12345, 95), 11728);  // 123.45 * 0.95 = 117.2775
  EXPECT_EQ(MulCents(-5, 50), -3);        // -0.025 rounds away from zero
  EXPECT_EQ(MulCents(5, 50), 3);
  int64_t c = 0;
  EXPECT_TRUE(ParseCents("-12.34", &c));
  EXPECT_EQ(c, -1234);
  EXPECT_TRUE(ParseCents("0.05", &c));
  EXPECT_EQ(c, 5);
  EXPECT_FALSE(ParseCents("12.3", &c));
  EXPECT_FALSE(ParseCents("x.00", &c));
}

// Loads a tiny LINEITEM through the benchmark's own set-up path and checks
// the engine's TCP answers against the oracle, plus one tampered answer.
TEST(OracleTest, MatchesTheEngineOnATinyLoad) {
  for (smadb::tpch::ClusterMode mode :
       {smadb::tpch::ClusterMode::kShipdateSorted,
        smadb::tpch::ClusterMode::kShuffled}) {
    const WorkloadSpec spec{"tiny", 0.002, mode, 256, false, 1, false,
                            {QueryKind::kQ1, QueryKind::kQ6,
                             QueryKind::kWindow}};
    Instance inst;
    DataSet data;
    SetupTimes times;
    ASSERT_TRUE(LoadAndServe(spec, 42, "", &inst, &times, &data).ok());
    ASSERT_GT(data.rows.size(), 10000u);
    EXPECT_GT(times.total_s, 0.0);

    Client client;
    ASSERT_TRUE(client.Connect(inst.server->port()));
    for (int delta : {60, 90, 120}) {
      const Reply r = client.Request(MakeQ1(delta).sql);
      ASSERT_TRUE(r.ok) << r.status;
      std::string why;
      EXPECT_TRUE(CheckQ1Reply(r.lines, OracleQ1(data.rows, delta), &why))
          << why;
      if (delta == 90) {
        std::vector<std::string> tampered = r.lines;
        tampered[1][tampered[1].size() - 1] ^= 1;  // last digit of a count
        EXPECT_FALSE(CheckQ1Reply(tampered, OracleQ1(data.rows, 90), &why));
      }
    }
    for (int year : {1993, 1995, 1997}) {
      const Query q = MakeQ6(year, 6, 24);
      const Reply r = client.Request(q.sql);
      ASSERT_TRUE(r.ok) << r.status;
      SumCount got;
      std::string why;
      ASSERT_TRUE(ParseSumCount(r.lines, &got, &why)) << why;
      const SumCount want = OracleQ6(data.rows, year, 6, 24);
      EXPECT_GT(want.count, 0);
      EXPECT_EQ(got.sum, want.sum);
      EXPECT_EQ(got.count, want.count);
    }
    for (const int32_t from : {WindowFromDays(), INT32_MIN}) {
      const Reply r = client.Request(
          (from == INT32_MIN ? MakeTotals() : MakeWindow(from)).sql);
      ASSERT_TRUE(r.ok) << r.status;
      SumCount got;
      std::string why;
      ASSERT_TRUE(ParseSumCount(r.lines, &got, &why)) << why;
      EXPECT_EQ(got, OracleWindow(data.rows, from));
    }
  }
}

TEST(QueryStreamTest, EachQ1DeltaOncePerCycle) {
  QueryStream s(11, {QueryKind::kQ1});
  std::set<int> deltas;
  for (int i = 0; i < 61; ++i) deltas.insert(s.Next().q1_delta);
  EXPECT_EQ(deltas.size(), 61u);
  EXPECT_EQ(*deltas.begin(), 60);
  EXPECT_EQ(*deltas.rbegin(), 120);
}

TEST(QueryStreamTest, SameSeedSameStatementsWithinTheParameterRanges) {
  const std::vector<QueryKind> pattern = {QueryKind::kQ1, QueryKind::kQ6};
  QueryStream a(7, pattern), b(7, pattern), c(8, pattern);
  bool differs = false;
  for (int i = 0; i < 200; ++i) {
    const Query qa = a.Next(), qb = b.Next(), qc = c.Next();
    EXPECT_EQ(qa.sql, qb.sql);
    differs |= qa.sql != qc.sql;
    if (qa.kind == QueryKind::kQ1) {
      EXPECT_GE(qa.q1_delta, 60);
      EXPECT_LE(qa.q1_delta, 120);
    } else {
      EXPECT_GE(qa.q6_year, 1993);
      EXPECT_LE(qa.q6_year, 1997);
      EXPECT_GE(qa.q6_discount, 2);
      EXPECT_LE(qa.q6_discount, 9);
      EXPECT_GE(qa.q6_quantity, 24);
      EXPECT_LE(qa.q6_quantity, 25);
    }
  }
  EXPECT_TRUE(differs);
}

}  // namespace
}  // namespace perfbench
