#include "workload.h"

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <map>
#include <mutex>
#include <thread>
#include <tuple>
#include <utility>

#include "client.h"
#include "db/session.h"
#include "db/sql.h"
#include "planner/planner.h"
#include "spans.h"
#include "stats.h"
#include "storage/column_batch.h"
#include "tpch/schemas.h"
#include "util/date.h"
#include "util/stopwatch.h"
#include "workloads/q1.h"

namespace perfbench {

namespace db = smadb::db;
namespace net = smadb::net;
namespace plan = smadb::plan;
namespace storage = smadb::storage;
namespace tpch = smadb::tpch;
namespace util = smadb::util;
using util::Status;

namespace {

// Why each workload exists is in README.md; the numbers here are the
// sizes it documents.
const std::vector<WorkloadSpec>& Specs() {
  static const std::vector<WorkloadSpec> specs = {
      {"sma_sorted", 0.1, tpch::ClusterMode::kShipdateSorted, 2048, false, 1,
       false, {QueryKind::kQ1, QueryKind::kQ6, QueryKind::kQ1}},
      {"scan_shuffled", 0.1, tpch::ClusterMode::kShuffled, 32768, false, 1,
       false, {QueryKind::kQ1, QueryKind::kQ6, QueryKind::kQ1}},
      {"append_mixed", 0.05, tpch::ClusterMode::kShipdateSorted, 2048, true,
       3, true, {QueryKind::kQ1, QueryKind::kWindow}},
  };
  return specs;
}

// Flush policy of every workload: a WAL fdatasync every 8 commits (the
// file backend; the simulated backend has no WAL).
constexpr size_t kWalSyncInterval = 8;
// Workloads without a writer append in bursts spread over the read window:
// the single reader stops between two requests and appends one burst, with
// nothing else running. That prices the insert path with SMA maintenance
// on its own, and samples it across the same stretch of time as the reads.
// Many bursts rather than a few long ones: see SummarizeAppends. A burst
// starts cold after a read: its first insert and its first new page take
// about 60 us against 3 us for most inserts and 10 us for a new page
// (every 28th insert). At 1,000 rows those two are 0.2% of the inserts and
// p99 falls among the new-page inserts; at 250 rows they were 0.8% and
// p99 sat on the edge between the two groups.
constexpr int kAppendBursts = 100;
constexpr int kBurstRows = 1000;
// The writer of append_mixed pauses this long after each acknowledged
// insert. Without a pause, an insert is in flight so often that about a
// third of the reads see a stale SMA and are demoted to full scans; half of
// all reads then fall in the slow mode, and p50 and p90 sit on the edge
// between the SMA and scan latency modes.
constexpr auto kWriterThink = std::chrono::milliseconds(2);
// Set-ups per run; setup_s is their median.
constexpr int kSetups = 3;
// Rows set aside from the generated data for the writer to derive from.
constexpr size_t kSampleRows = 4096;
// Upper bound on rows one run appends (sizes the writer's shadow).
constexpr size_t kMaxAppends = 2'000'000;

uint64_t SplitMix(uint64_t* s) {
  uint64_t z = (*s += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start < text.size()) {
    size_t nl = text.find('\n', start);
    if (nl == std::string::npos) nl = text.size();
    out.push_back(text.substr(start, nl - start));
    start = nl + 1;
  }
  return out;
}

// Sum of every sample of a Prometheus family in an exposition text.
double PromValue(const std::string& text, const std::string& name) {
  double total = 0.0;
  for (const std::string& line : Lines(text)) {
    if (line.size() <= name.size() || line.compare(0, name.size(), name) != 0)
      continue;
    const char next = line[name.size()];
    if (next != ' ' && next != '{') continue;
    const size_t sp = line.rfind(' ');
    total += std::strtod(line.c_str() + sp + 1, nullptr);
  }
  return total;
}

// Expected answers over the generated rows, for every parameter the query
// streams can draw.
struct AnswerBook {
  std::map<int, Q1Answer> q1;
  std::map<std::tuple<int, int, int>, SumCount> q6;
  SumCount window;  // generated rows only
  SumCount totals;  // generated rows only
};

AnswerBook BuildAnswers(const std::vector<OracleRow>& rows) {
  AnswerBook book;
  for (int d = 60; d <= 120; ++d) book.q1[d] = OracleQ1(rows, d);
  for (int y = 1993; y <= 1997; ++y) {
    for (int disc = 2; disc <= 9; ++disc) {
      for (int qty = 24; qty <= 25; ++qty) {
        book.q6[{y, disc, qty}] = OracleQ6(rows, y, disc, qty);
      }
    }
  }
  book.window = OracleWindow(rows, WindowFromDays());
  book.totals = OracleWindow(rows, INT32_MIN);
  return book;
}

// The appending side: derives row k deterministically from (seed, k),
// appends through a Session, and keeps a shadow of the quantity prefix sums
// so readers can check any snapshot they see exactly. Only one thread
// appends; readers call published() and prefix_qty().
class Appender {
 public:
  Appender(const DataSet& data, uint64_t seed, const storage::Schema* schema)
      : data_(data), seed_(seed), schema_(schema), prefix_(kMaxAppends + 1) {}

  bool full() const { return next_ >= kMaxAppends; }
  size_t appended() const { return next_; }
  size_t published() const {
    return published_.load(std::memory_order_acquire);
  }
  int64_t prefix_qty(size_t n) const { return prefix_[n]; }

  // Appends the next row; returns the insert latency in microseconds, or
  // a negative value when the insert failed (the row is retried next).
  double AppendNext(db::Session* session, SpanRecorder* spans) {
    const tpch::LineItemRow row = RowAt(next_);
    const storage::TupleBuffer tuple = tpch::LineItemTuple(schema_, row);
    prefix_[next_ + 1] = prefix_[next_] + row.quantity.cents();
    published_.store(next_ + 1, std::memory_order_release);
    const uint64_t req = spans->NewRequest();
    const int64_t t0 = NowNs();
    Status st;
    {
      ScopedSpan span(spans, "db.insert", 0, req);
      st = session->Insert("lineitem", tuple);
    }
    const double us = static_cast<double>(NowNs() - t0) / 1e3;
    if (!st.ok()) {
      error_ = st.ToString();
      return -1.0;
    }
    ++next_;
    return us;
  }

  const std::string& error() const { return error_; }

 private:
  tpch::LineItemRow RowAt(size_t k) const {
    uint64_t s = seed_ * 0x100000001b3ULL + k;
    tpch::LineItemRow row =
        data_.sample[SplitMix(&s) % data_.sample.size()];
    const util::Date ship =
        util::Date::FromYmd(1999, 1, 1).AddDays(static_cast<int32_t>(k / 400));
    row.orderkey = data_.max_orderkey + 1 + static_cast<int64_t>(k / 4);
    row.linenumber = static_cast<int32_t>(k % 4) + 1;
    row.shipdate = ship;
    row.commitdate = ship.AddDays(-30);
    row.receiptdate = ship.AddDays(5);
    row.returnflag = 'N';
    row.linestatus = 'O';
    return row;
  }

  const DataSet& data_;
  const uint64_t seed_;
  const storage::Schema* schema_;
  std::vector<int64_t> prefix_;  // prefix_[n] = quantity of rows [0, n)
  std::atomic<size_t> published_{0};
  size_t next_ = 0;
  std::string error_;
};

// Checks one answer. The window and totals answers may include a prefix of
// the appended rows; the window count seen by one reader never decreases.
class Checker {
 public:
  Checker(const AnswerBook& book, const Appender& app)
      : book_(book), app_(app) {}

  bool Check(const Query& q, const std::vector<std::string>& lines,
             int64_t* last_window, std::string* why) const {
    switch (q.kind) {
      case QueryKind::kQ1:
        return CheckQ1Reply(lines, book_.q1.at(q.q1_delta), why);
      case QueryKind::kQ6: {
        SumCount got;
        if (!ParseSumCount(lines, &got, why)) return false;
        const SumCount want =
            book_.q6.at({q.q6_year, q.q6_discount, q.q6_quantity});
        if (!(got == want)) {
          *why = "Q6: got " + lines[1] + ", want " + std::to_string(want.sum) +
                 " cents / " + std::to_string(want.count);
          return false;
        }
        return true;
      }
      case QueryKind::kWindow:
      case QueryKind::kTotals: {
        SumCount got;
        if (!ParseSumCount(lines, &got, why)) return false;
        const SumCount base =
            q.kind == QueryKind::kWindow ? book_.window : book_.totals;
        const int64_t n = got.count - base.count;
        const size_t published = app_.published();
        if (n < 0 || static_cast<size_t>(n) > published) {
          *why = "count " + std::to_string(got.count) + " outside [" +
                 std::to_string(base.count) + ", " +
                 std::to_string(base.count + static_cast<int64_t>(published)) +
                 "]";
          return false;
        }
        if (got.sum != base.sum + app_.prefix_qty(static_cast<size_t>(n))) {
          *why = "sum(l_quantity) " + std::to_string(got.sum) +
                 " cents is not the generated rows plus the first " +
                 std::to_string(n) + " appended rows";
          return false;
        }
        if (q.kind == QueryKind::kWindow) {
          if (got.count < *last_window) {
            *why = "recent-window count fell from " +
                   std::to_string(*last_window) + " to " +
                   std::to_string(got.count);
            return false;
          }
          *last_window = got.count;
        }
        return true;
      }
    }
    return false;
  }

 private:
  const AnswerBook& book_;
  const Appender& app_;
};

// Counter snapshot of every layer that exposes one.
struct Counters {
  storage::PoolStats pool;
  storage::IoStats io;
  storage::LatchStats latch;
  net::Server::Stats net;
  storage::WalStats wal;
  double qualifying = 0, disqualifying = 0, ambivalent = 0;
  double cpu_s = 0;
};

Counters Snapshot(Instance* inst) {
  Counters c;
  c.pool = inst->db->pool()->stats();
  c.io = inst->db->disk()->stats();
  c.latch = inst->table->latches()->stats();
  c.net = inst->server->stats();
  if (inst->db->wal() != nullptr) c.wal = inst->db->wal()->stats();
  const std::string prom = inst->db->ExportMetrics();
  c.qualifying = PromValue(prom, "smadb_buckets_qualifying_total");
  c.disqualifying = PromValue(prom, "smadb_buckets_disqualifying_total");
  c.ambivalent = PromValue(prom, "smadb_buckets_ambivalent_total");
  c.cpu_s = CpuSeconds();
  return c;
}

bool IsSmaPlan(plan::PlanKind kind) {
  return kind == plan::PlanKind::kSmaGAggr ||
         kind == plan::PlanKind::kSmaScanAggr;
}

// What the decomposed replay of one statement saw.
struct Replay {
  QueryKind query;
  plan::PlanKind kind;
  double fetch_fraction;
  double rows_fetched;
};

// Accumulated over one timed window.
struct Window {
  double wall_s = 0.0;
  std::vector<double> read_ms;  // TCP send -> OK, untraced requests only
  std::vector<double> append_us;
  uint64_t reads_ok = 0;
  uint64_t appends_ok = 0;
  Counters before, after;
  std::vector<Replay> replays;
};

// Shared state of one run.
struct Ctx {
  const WorkloadSpec* spec;
  uint64_t seed;
  Instance* inst;
  const AnswerBook* book;
  Appender* app;
  Checker* checker;
  plan::PlannerOptions popts;

  std::mutex mu;  // guards the fields below
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  std::string first_error;

  void Fail(const std::string& why, bool wrong_answer) {
    std::lock_guard<std::mutex> lock(mu);
    ++failed;
    if (wrong_answer) correct = false;
    if (first_error.empty()) first_error = why;
  }
  void Attempted(uint64_t n) {
    std::lock_guard<std::mutex> lock(mu);
    attempted += n;
  }
};

// Checks a result the engine returned in process (session or replay).
void CheckInProcess(Ctx* ctx, const Query& q,
                    const util::Result<plan::QueryResult>& res,
                    int64_t* last_window, const char* path) {
  ctx->Attempted(1);
  if (!res.ok()) {
    ctx->Fail(std::string(path) + ": " + res.status().ToString(), false);
    return;
  }
  std::string why;
  if (!ctx->checker->Check(q, Lines(res->ToString()), last_window, &why)) {
    ctx->Fail(std::string(path) + ": " + why, true);
  }
}

// parse -> Planner::Choose -> Planner::Build -> RunToCompletion, each in
// its own span, the way Database::RunQuery composes them.
void ReplayStatement(Ctx* ctx, SpanRecorder* spans, uint64_t parent,
                     uint64_t req, const Query& q, int64_t* last_window,
                     std::vector<Replay>* out) {
  ScopedSpan replay(spans, "replay", parent, req);
  storage::Table* table = nullptr;
  util::Result<db::ParsedQuery> parsed = Status::Internal("not parsed");
  {
    ScopedSpan span(spans, "db.parse", replay.id(), req);
    util::Result<std::string> name = db::ExtractTableName(q.sql);
    if (name.ok()) {
      util::Result<storage::Table*> t = ctx->inst->db->GetTable(*name);
      if (t.ok()) {
        table = *t;
        parsed = db::ParseQuery(&table->schema(), q.sql);
      } else {
        parsed = t.status();
      }
    } else {
      parsed = name.status();
    }
  }
  if (!parsed.ok()) {
    ctx->Attempted(1);
    ctx->Fail("replay parse: " + parsed.status().ToString(), false);
    return;
  }
  plan::AggQuery aq;
  aq.table = table;
  aq.pred = parsed->pred;
  aq.group_by = parsed->group_by;
  aq.aggs = parsed->aggs;
  const plan::Planner planner(ctx->inst->smas, ctx->popts);
  util::Result<plan::PlanChoice> choice = Status::Internal("not planned");
  {
    ScopedSpan span(spans, "planner.choose", replay.id(), req);
    choice = planner.Choose(aq);
  }
  if (!choice.ok()) {
    ctx->Attempted(1);
    ctx->Fail("replay choose: " + choice.status().ToString(), false);
    return;
  }
  util::Result<std::unique_ptr<smadb::exec::Operator>> op =
      Status::Internal("not built");
  {
    ScopedSpan span(spans, "planner.build", replay.id(), req);
    op = planner.Build(aq, choice->kind, choice->dop);
  }
  if (!op.ok()) {
    ctx->Attempted(1);
    ctx->Fail("replay build: " + op.status().ToString(), false);
    return;
  }
  util::Result<plan::QueryResult> res = Status::Internal("not run");
  {
    ScopedSpan span(spans, "exec.run", replay.id(), req);
    res = plan::RunToCompletion(op->get());
  }
  CheckInProcess(ctx, q, res, last_window, "replay");
  out->push_back(Replay{q.kind, choice->kind, choice->fetch_fraction,
                        choice->fetch_fraction *
                            static_cast<double>(table->num_tuples())});
}

// Where a reader sends its statements: over TCP to the server, or (the
// traced run's decomposition phase) through an in-process Session followed
// by the parse -> Choose -> Build -> RunToCompletion replay.
enum class Path { kTcp, kInProcess };

void AppendBurst(Ctx* ctx, db::Session* session, SpanRecorder* spans,
                 std::vector<double>* us) {
  for (int i = 0; i < kBurstRows; ++i) {
    const double t = ctx->app->AppendNext(session, spans);
    ctx->Attempted(1);
    if (t < 0) {
      ctx->Fail("append burst: " + ctx->app->error(), false);
      continue;
    }
    us->push_back(t);
  }
}

// One closed-loop reader. With `tracing` set, TCP requests are traced only
// while it reads true. With `burst_every_s` > 0 the reader also appends
// kAppendBursts bursts, one every `burst_every_s` seconds.
void ReaderLoop(Ctx* ctx, int idx, Path path, uint64_t stream_seed,
                std::atomic<bool>* stop, std::atomic<uint64_t>* completed,
                SpanRecorder* traced, const std::atomic<bool>* tracing,
                double burst_every_s, std::mutex* win_mu, Window* win) {
  SpanRecorder untraced(false);
  util::Stopwatch watch;
  int bursts = 0;
  std::vector<double> append_us;
  std::unique_ptr<db::Session> appender;
  if (burst_every_s > 0) appender = ctx->inst->db->CreateSession();
  Client client;
  std::unique_ptr<db::Session> session;
  if (path == Path::kInProcess) {
    session = ctx->inst->db->CreateSession();
  } else if (!client.Connect(ctx->inst->server->port())) {
    ctx->Attempted(1);
    ctx->Fail("reader " + std::to_string(idx) + ": connect failed", false);
    return;
  }
  QueryStream stream(stream_seed, ctx->spec->pattern);
  int64_t last_window = -1;
  std::vector<double> lat;
  uint64_t traced_ok = 0;
  std::vector<Replay> replays;
  while (!stop->load(std::memory_order_acquire)) {
    const Query q = stream.Next();
    SpanRecorder* spans =
        tracing == nullptr || tracing->load(std::memory_order_acquire)
            ? traced
            : &untraced;
    const uint64_t req = spans->NewRequest();
    ScopedSpan root(spans, "request", 0, req);
    if (path == Path::kInProcess) {
      util::Result<plan::QueryResult> res = Status::Internal("not run");
      {
        ScopedSpan span(spans, "db.session_query", root.id(), req);
        res = session->Query(q.sql);
      }
      CheckInProcess(ctx, q, res, &last_window, "session");
      ReplayStatement(ctx, spans, root.id(), req, q, &last_window, &replays);
      completed->fetch_add(1, std::memory_order_acq_rel);
      continue;
    }
    Reply reply;
    const int64_t t0 = NowNs();
    {
      ScopedSpan span(spans, "net.request", root.id(), req);
      reply = client.Request(q.sql);
    }
    const double ms = static_cast<double>(NowNs() - t0) / 1e6;
    ctx->Attempted(1);
    if (!reply.ok) {
      ctx->Fail("reader " + std::to_string(idx) + ": '" + reply.status + "'",
                false);
      if (reply.status.empty() && !client.Connect(ctx->inst->server->port()))
        return;
      continue;
    }
    if (spans->enabled()) {
      ++traced_ok;
    } else {
      lat.push_back(ms);
    }
    completed->fetch_add(1, std::memory_order_acq_rel);
    std::string why;
    if (!ctx->checker->Check(q, reply.lines, &last_window, &why)) {
      ctx->Fail("reader " + std::to_string(idx) + ": " + why, true);
    }
    while (appender != nullptr && bursts < kAppendBursts &&
           watch.ElapsedSeconds() >= (bursts + 0.5) * burst_every_s) {
      AppendBurst(ctx, appender.get(), spans, &append_us);
      ++bursts;
    }
  }
  for (; appender != nullptr && bursts < kAppendBursts; ++bursts) {
    AppendBurst(ctx, appender.get(), &untraced, &append_us);
  }
  std::lock_guard<std::mutex> lock(*win_mu);
  win->read_ms.insert(win->read_ms.end(), lat.begin(), lat.end());
  win->append_us.insert(win->append_us.end(), append_us.begin(),
                        append_us.end());
  win->appends_ok += append_us.size();
  win->reads_ok += lat.size() + traced_ok;
  win->replays.insert(win->replays.end(), replays.begin(), replays.end());
}

void WriterLoop(Ctx* ctx, std::atomic<bool>* stop, SpanRecorder* spans,
                std::mutex* win_mu, Window* win) {
  std::unique_ptr<db::Session> session = ctx->inst->db->CreateSession();
  std::vector<double> append_us;
  int consecutive_failures = 0;
  while (!stop->load(std::memory_order_acquire) && !ctx->app->full() &&
         consecutive_failures < 100) {
    const double us = ctx->app->AppendNext(session.get(), spans);
    ctx->Attempted(1);
    if (us < 0) {
      ctx->Fail("writer: " + ctx->app->error(), false);
      ++consecutive_failures;
      continue;
    }
    consecutive_failures = 0;
    append_us.push_back(us);
    std::this_thread::sleep_for(kWriterThink);
  }
  std::lock_guard<std::mutex> lock(*win_mu);
  win->append_us.insert(win->append_us.end(), append_us.begin(),
                        append_us.end());
  win->appends_ok += append_us.size();
}

// Runs readers (and the writer, if the workload has one) for `seconds`,
// then on until `min_reads` replies have arrived (capped at 3x `seconds`).
// With `alternate`, tracing of the TCP requests is switched on and off
// every 250 ms, so traced and untraced samples share the same conditions.
Window RunWindow(Ctx* ctx, Path path, double seconds, size_t min_reads,
                 uint64_t stream_salt, SpanRecorder* spans, bool alternate) {
  Window win;
  std::atomic<bool> tracing{false};
  std::atomic<bool> stop{false};
  std::atomic<bool> writer_stop{false};
  std::atomic<uint64_t> completed{0};
  std::mutex win_mu;
  win.before = Snapshot(ctx->inst);
  util::Stopwatch watch;
  std::vector<std::thread> threads;
  for (int r = 0; r < ctx->spec->readers; ++r) {
    const uint64_t stream_seed =
        ctx->seed * 1000003ULL + static_cast<uint64_t>(r) * 7919ULL +
        stream_salt;
    const double burst_every_s =
        path == Path::kTcp && !ctx->spec->writer && r == 0
            ? seconds / kAppendBursts
            : 0.0;
    threads.emplace_back(ReaderLoop, ctx, r, path, stream_seed, &stop,
                         &completed, spans, alternate ? &tracing : nullptr,
                         burst_every_s, &win_mu, &win);
  }
  std::thread writer;
  if (ctx->spec->writer) {
    writer = std::thread(WriterLoop, ctx, &writer_stop, spans, &win_mu, &win);
  }
  const auto sleep_until = [&](double s) {
    while (watch.ElapsedSeconds() < s) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      const bool on = static_cast<int64_t>(watch.ElapsedSeconds() / 0.25) % 2;
      tracing.store(on, std::memory_order_release);
    }
  };
  sleep_until(seconds);
  while (completed.load() < min_reads && watch.ElapsedSeconds() < 3 * seconds) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  writer_stop.store(true, std::memory_order_release);
  if (writer.joinable()) writer.join();
  win.wall_s = watch.ElapsedSeconds();
  win.after = Snapshot(ctx->inst);
  return win;
}

// Insert latencies are grouped into chunks of kBurstRows consecutive
// inserts (one burst each, or the writer's stream cut to that size), and
// the figures come from the fastest tenth of the chunks. On a shared host
// whole chunks run about 1.7x slower in phases of host contention that
// last seconds; the share of such chunks changes from run to run (from
// 0.06 to 0.88), so a median or mean over all chunks, or over the fastest
// quarter, measures the host as much as the insert path. A slowdown of the
// insert path itself slows every chunk and shows in the fastest tenth too.
constexpr double kFastChunkShare = 0.1;

struct AppendSummary {
  double rows_per_s = 0.0;  // inserts per second spent inside Insert
  double p99_us = 0.0;
};

AppendSummary SummarizeAppends(const std::vector<double>& us) {
  const size_t n = static_cast<size_t>(kBurstRows);
  std::vector<std::pair<double, size_t>> chunks;  // (total us, first index)
  for (size_t lo = 0; lo + n <= us.size(); lo += n) {
    double total = 0.0;
    for (size_t i = lo; i < lo + n; ++i) total += us[i];
    chunks.emplace_back(total, lo);
  }
  if (chunks.empty()) return AppendSummary{};
  std::sort(chunks.begin(), chunks.end());
  const size_t keep = std::max<size_t>(
      1, static_cast<size_t>(static_cast<double>(chunks.size()) *
                             kFastChunkShare));
  std::vector<double> fast;
  double total = 0.0;
  for (size_t c = 0; c < keep; ++c) {
    total += chunks[c].first;
    fast.insert(fast.end(), us.begin() + chunks[c].second,
                us.begin() + chunks[c].second + n);
  }
  return AppendSummary{total > 0 ? fast.size() / (total / 1e6) : 0.0,
                       Quantile(fast, 0.99)};
}

// After the load stops: totals must equal the generated rows plus exactly
// the rows the writer appended, and Q1 must still be exact.
void FinalCheck(Ctx* ctx) {
  Client client;
  if (!client.Connect(ctx->inst->server->port())) {
    ctx->Attempted(1);
    ctx->Fail("final check: connect failed", false);
    return;
  }
  for (const Query& q : {MakeTotals(), MakeQ1(90)}) {
    ctx->Attempted(1);
    const Reply reply = client.Request(q.sql);
    if (!reply.ok) {
      ctx->Fail("final check: '" + reply.status + "'", false);
      continue;
    }
    std::string why;
    int64_t unused = -1;
    if (!ctx->checker->Check(q, reply.lines, &unused, &why)) {
      ctx->Fail("final check: " + why, true);
      continue;
    }
    if (q.kind == QueryKind::kTotals) {
      SumCount got;
      ParseSumCount(reply.lines, &got, &why);
      const int64_t want =
          ctx->book->totals.count + static_cast<int64_t>(ctx->app->appended());
      if (got.count != want) {
        ctx->Fail("final check: count(*) " + std::to_string(got.count) +
                      " != " + std::to_string(want) +
                      " (generated + acknowledged appends)",
                  true);
      }
    }
  }
}

// --- per-layer probes of the traced run ------------------------------------

// Wall time of the same statements at DOP 1 over wall time at the default
// DOP, through in-process sessions; also CPU/wall at the default DOP.
void DopProbe(Ctx* ctx, double* speedup, double* cpu_per_wall) {
  std::unique_ptr<db::Session> serial = ctx->inst->db->CreateSession();
  serial->set_degree_of_parallelism(1);
  std::unique_ptr<db::Session> dflt = ctx->inst->db->CreateSession();
  QueryStream stream(ctx->seed * 31 + 5, ctx->spec->pattern);
  std::vector<Query> qs;
  while (qs.size() < 6) qs.push_back(stream.Next());
  constexpr int kRounds = 3;
  std::vector<std::vector<double>> t1(qs.size()), tn(qs.size());
  double cpu = 0.0, wall = 0.0;
  for (int r = 0; r < kRounds; ++r) {
    for (size_t i = 0; i < qs.size(); ++i) {
      int64_t last = -1;
      util::Stopwatch w1;
      util::Result<plan::QueryResult> a = serial->Query(qs[i].sql);
      t1[i].push_back(w1.ElapsedSeconds());
      CheckInProcess(ctx, qs[i], a, &last, "dop 1");
      const double c0 = CpuSeconds();
      util::Stopwatch wn;
      util::Result<plan::QueryResult> b = dflt->Query(qs[i].sql);
      const double w = wn.ElapsedSeconds();
      cpu += CpuSeconds() - c0;
      wall += w;
      tn[i].push_back(w);
      CheckInProcess(ctx, qs[i], b, &last, "default dop");
    }
  }
  double sum1 = 0.0, sumn = 0.0;
  for (size_t i = 0; i < qs.size(); ++i) {
    sum1 += Median(t1[i]);
    sumn += Median(tn[i]);
  }
  *speedup = sumn > 0 ? sum1 / sumn : 0.0;
  *cpu_per_wall = wall > 0 ? cpu / wall : 0.0;
}

// Fetch + unpin of every LINEITEM page through the buffer pool, split into
// contiguous ranges over `threads` threads; wall ns per page, median of 3.
double FetchNsPerPage(Ctx* ctx, unsigned threads) {
  storage::BufferPool* pool = ctx->inst->db->pool();
  const storage::FileId file = ctx->inst->table->file();
  const uint32_t pages = ctx->inst->table->num_pages();
  std::vector<double> passes;
  std::atomic<bool> failed{false};
  for (int pass = 0; pass < 3; ++pass) {
    util::Stopwatch watch;
    std::vector<std::thread> ts;
    for (unsigned t = 0; t < threads; ++t) {
      const uint32_t lo = static_cast<uint32_t>(uint64_t{pages} * t / threads);
      const uint32_t hi =
          static_cast<uint32_t>(uint64_t{pages} * (t + 1) / threads);
      ts.emplace_back([pool, file, lo, hi, &failed] {
        for (uint32_t p = lo; p < hi; ++p) {
          if (!pool->Fetch(file, p).ok()) failed.store(true);
        }
      });
    }
    for (std::thread& t : ts) t.join();
    passes.push_back(watch.ElapsedSeconds() * 1e9 / std::max(1u, pages));
  }
  if (failed.load()) ctx->Fail("pool fetch probe: a fetch failed", false);
  return Median(passes);
}

// ColumnBatch decode of Q1's columns from every LINEITEM page (pages are
// pinned first, so only the decode is timed); ns per row, median of 3.
double DecodeNsPerRow(Ctx* ctx) {
  storage::Table* table = ctx->inst->table;
  std::vector<bool> projection(table->schema().num_fields(), false);
  for (size_t c : {tpch::lineitem::kQuantity, tpch::lineitem::kExtendedPrice,
                   tpch::lineitem::kDiscount, tpch::lineitem::kTax,
                   tpch::lineitem::kReturnFlag, tpch::lineitem::kLineStatus,
                   tpch::lineitem::kShipDate}) {
    projection[c] = true;
  }
  storage::ColumnBatch cols;
  cols.Configure(&table->schema(), table->tuples_per_page(), projection);
  std::vector<double> passes;
  for (int pass = 0; pass < 3; ++pass) {
    int64_t ns = 0;
    uint64_t rows = 0;
    for (uint32_t p = 0; p < table->num_pages(); ++p) {
      util::Result<storage::PageGuard> guard = table->FetchPage(p);
      if (!guard.ok()) {
        ctx->Fail("decode probe: " + guard.status().ToString(), false);
        return 0.0;
      }
      const storage::Page& page = *guard->page();
      const uint16_t n = storage::Table::PageTupleCount(page);
      const int64_t t0 = NowNs();
      cols.Clear();
      cols.AppendFromPage(*table, page, 0, n);
      ns += NowNs() - t0;
      rows += cols.num_rows();
    }
    passes.push_back(static_cast<double>(ns) / std::max<uint64_t>(1, rows));
  }
  return Median(passes);
}

double PerQuery(double v, uint64_t queries) {
  return queries == 0 ? 0.0 : v / static_cast<double>(queries);
}

// Median over requests of the summed self time of the named spans.
double MedianPerRequestMs(const std::vector<Span>& spans,
                          const std::map<uint64_t, int64_t>& self,
                          std::initializer_list<const char*> names) {
  std::map<uint64_t, int64_t> per_req;
  for (const Span& s : spans) {
    for (const char* n : names) {
      if (std::string(n) == s.name) per_req[s.request] += self.at(s.id);
    }
  }
  std::vector<double> v;
  for (const auto& [req, ns] : per_req) v.push_back(static_cast<double>(ns));
  return Median(v) / 1e6;
}

}  // namespace

Instance::~Instance() {
  if (server != nullptr) (void)server->Shutdown();
  server.reset();
  if (db != nullptr) (void)db->Close();
  db.reset();
  if (!dir.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& s : Specs()) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> out;
  for (const WorkloadSpec& s : Specs()) out.push_back(s.name);
  return out;
}

int32_t WindowFromDays() { return util::Date::FromYmd(1998, 11, 1).days(); }

QueryStream::QueryStream(uint64_t seed, std::vector<QueryKind> pattern)
    : pattern_(std::move(pattern)) {
  for (int d = 60; d <= 120; ++d) q1_deltas_.push_back(d);
  for (int year = 1993; year <= 1997; ++year) {
    for (int discount = 2; discount <= 9; ++discount) {
      for (int quantity = 24; quantity <= 25; ++quantity) {
        q6_params_.emplace_back(year, discount, quantity);
      }
    }
  }
  uint64_t state = seed;
  const auto shuffle = [&state](auto* v) {
    for (size_t i = v->size(); i > 1; --i) {
      std::swap((*v)[i - 1], (*v)[SplitMix(&state) % i]);
    }
  };
  shuffle(&q1_deltas_);
  shuffle(&q6_params_);
}

Query QueryStream::Next() {
  const QueryKind kind = pattern_[pos_++ % pattern_.size()];
  switch (kind) {
    case QueryKind::kQ1:
      return MakeQ1(q1_deltas_[q1_pos_++ % q1_deltas_.size()]);
    case QueryKind::kQ6: {
      const auto [year, discount, quantity] =
          q6_params_[q6_pos_++ % q6_params_.size()];
      return MakeQ6(year, discount, quantity);
    }
    case QueryKind::kWindow:
      return MakeWindow(WindowFromDays());
    case QueryKind::kTotals:
      return MakeTotals();
  }
  return MakeTotals();
}

Status LoadAndServe(const WorkloadSpec& spec, uint64_t seed,
                    const std::string& dir, Instance* inst, SetupTimes* times,
                    DataSet* data) {
  util::Stopwatch total;
  double excluded_s = 0.0;
  util::Stopwatch watch;
  std::vector<tpch::OrderRow> orders;
  std::vector<tpch::LineItemRow> rows;
  tpch::Dbgen gen(tpch::DbgenOptions{spec.scale_factor, seed});
  gen.GenOrdersAndLineItems(&orders, &rows);
  orders = {};
  double tpch_s = watch.ElapsedSeconds();
  if (data != nullptr) {
    util::Stopwatch copy;
    data->rows.clear();
    data->rows.reserve(rows.size());
    for (const tpch::LineItemRow& r : rows) {
      data->rows.push_back(ToOracleRow(r));
      data->max_orderkey = std::max(data->max_orderkey, r.orderkey);
    }
    uint64_t s = seed;
    data->sample.clear();
    for (size_t i = 0; i < kSampleRows && !rows.empty(); ++i) {
      data->sample.push_back(rows[SplitMix(&s) % rows.size()]);
    }
    excluded_s += copy.ElapsedSeconds();
  }

  db::DatabaseOptions options;
  options.pool_pages = spec.pool_pages;
  options.wal_sync_interval = kWalSyncInterval;
  if (spec.file_backend) {
    options.storage_backend = storage::BackendKind::kFile;
    options.storage_path = dir;
    inst->dir = dir;
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    std::filesystem::create_directories(dir, ec);
    if (ec) {
      return Status::IOError("cannot create " + dir + ": " + ec.message());
    }
  }
  SMADB_ASSIGN_OR_RETURN(inst->db, db::Database::Open(std::move(options)));

  watch.Restart();
  tpch::LoadOptions load;
  load.mode = spec.cluster;
  load.seed = seed;
  SMADB_ASSIGN_OR_RETURN(
      inst->table,
      tpch::LoadLineItem(inst->db->catalog(), std::move(rows), load));
  tpch_s += watch.ElapsedSeconds();

  watch.Restart();
  SMADB_ASSIGN_OR_RETURN(inst->smas, inst->db->Smas("lineitem"));
  SMADB_RETURN_NOT_OK(smadb::workloads::BuildQ1Smas(inst->table, inst->smas));
  SMADB_RETURN_NOT_OK(smadb::workloads::BuildQ6Smas(inst->table, inst->smas));
  const double sma_s = watch.ElapsedSeconds();

  if (spec.file_backend) SMADB_RETURN_NOT_OK(inst->db->Checkpoint());

  net::ServerOptions so;
  so.port = 0;
  so.worker_threads = 4;
  so.enable_http = false;
  so.checkpoint_on_drain = false;
  inst->server = std::make_unique<net::Server>(inst->db.get(), so);
  SMADB_RETURN_NOT_OK(inst->server->Start());

  // Warm-up: one statement of each kind the workload sends.
  Client client;
  if (!client.Connect(inst->server->port())) {
    return Status::IOError("warm-up: cannot connect to the server");
  }
  for (QueryKind k : spec.pattern) {
    const Query q = k == QueryKind::kQ1   ? MakeQ1(90)
                    : k == QueryKind::kQ6 ? MakeQ6(1994, 6, 24)
                                          : MakeWindow(WindowFromDays());
    const Reply reply = client.Request(q.sql);
    if (!reply.ok) return Status::Internal("warm-up: " + reply.status);
  }
  if (times != nullptr) {
    times->tpch_s = tpch_s;
    times->sma_s = sma_s;
    times->total_s = total.ElapsedSeconds() - excluded_s;
  }
  return Status::OK();
}

Outcome Run(const RunConfig& cfg) {
  const WorkloadSpec& spec = *cfg.spec;
  Outcome out;
  std::vector<double> setup_s, tpch_s, sma_s;
  DataSet data;
  std::unique_ptr<Instance> inst;
  for (int i = 0; i < kSetups; ++i) {
    inst.reset();  // the previous set-up is torn down before the next
    malloc_trim(0);  // and its freed memory returned, so peaks do not stack
    inst = std::make_unique<Instance>();
    SetupTimes times;
    const std::string dir = cfg.work_dir + "/data-" + spec.name + "-" +
                            std::to_string(::getpid()) + "-" +
                            std::to_string(i);
    const Status st = LoadAndServe(spec, cfg.seed, dir, inst.get(), &times,
                                  i + 1 == kSetups ? &data : nullptr);
    if (!st.ok()) {
      out.correct = false;
      out.attempted = 1;
      out.failed = 1;
      out.first_error = "set-up: " + st.ToString();
      return out;
    }
    setup_s.push_back(times.total_s);
    tpch_s.push_back(times.tpch_s);
    sma_s.push_back(times.sma_s);
  }
  const double sma_bytes_ratio =
      static_cast<double>(inst->smas->TotalSizeBytes()) /
      static_cast<double>(inst->table->SizeBytes());

  std::fprintf(stderr,
               "%s seed %llu: %zu rows in %u table pages + %llu SMA pages, "
               "pool %zu frames, set-up %.3f s (median of %d)\n",
               spec.name, static_cast<unsigned long long>(cfg.seed),
               data.rows.size(), inst->table->num_pages(),
               static_cast<unsigned long long>(inst->smas->TotalSizeBytes() /
                                               storage::kPageSize),
               spec.pool_pages, Median(setup_s), kSetups);
  const AnswerBook book = BuildAnswers(data.rows);
  Appender app(data, cfg.seed, &inst->table->schema());
  Checker checker(book, app);
  Ctx ctx;
  ctx.spec = &spec;
  ctx.seed = cfg.seed;
  ctx.inst = inst.get();
  ctx.book = &book;
  ctx.app = &app;
  ctx.checker = &checker;
  ctx.popts = inst->db->options().planner;

  SpanRecorder off(false);
  SpanRecorder spans(true);
  const size_t p90_reads = MinSamplesFor(0.9, 10);

  // The untraced run measures one TCP window. The traced run spends two
  // thirds of its time on the same TCP window with tracing switched on and
  // off in turns (the difference is the tracing overhead), then one third
  // on the same readers in process, every statement decomposed into spans.
  Window a = RunWindow(&ctx, Path::kTcp,
                       cfg.trace ? cfg.seconds * 2 / 3 : cfg.seconds,
                       cfg.trace ? 1 : p90_reads, 0, cfg.trace ? &spans : &off,
                       cfg.trace);
  Window c;
  if (cfg.trace) {
    c = RunWindow(&ctx, Path::kInProcess, cfg.seconds / 3, 1, 29, &spans,
                  false);
  }
  FinalCheck(&ctx);

  const auto add = [&](const std::string& name, double v, const char* unit) {
    out.metrics.push_back(Metric{name, v, unit});
  };
  const double rows_now = static_cast<double>(inst->table->num_tuples());
  if (!cfg.trace) {
    add("setup_s", Median(setup_s), "s");
    add("query_p50_ms", Quantile(a.read_ms, 0.5), "ms");
    add("query_p90_ms", Quantile(a.read_ms, 0.9), "ms");
    add("queries_per_s", a.reads_ok / a.wall_s, "1/s");
    const AppendSummary appends = SummarizeAppends(a.append_us);
    add("append_rows_per_s", appends.rows_per_s, "rows/s");
    add("append_p99_us", appends.p99_us, "us");
    add("cpu_ms_per_query",
        PerQuery((a.after.cpu_s - a.before.cpu_s) * 1e3, a.reads_ok), "ms");
    add("bytes_per_row",
        static_cast<double>(inst->table->SizeBytes() +
                            inst->smas->TotalSizeBytes()) /
            rows_now,
        "B");
    add("peak_rss_mb", PeakRssMb(), "MB");
    std::string deciles;
    for (int d = 1; d <= 9; ++d) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), " %.2f", Quantile(a.read_ms, d / 10.0));
      deciles += buf;
    }
    std::fprintf(stderr, "%s seed %llu: read latency deciles (ms):%s\n",
                 spec.name, static_cast<unsigned long long>(cfg.seed),
                 deciles.c_str());
    std::fprintf(stderr,
                 "%s seed %llu: %zu reads (p90 leaves %zu beyond; highest "
                 "supported quantile %.3f), %llu appends in chunks of %d, "
                 "append figures from the fastest %.0f%% of chunks\n",
                 spec.name, static_cast<unsigned long long>(cfg.seed),
                 a.read_ms.size(), SamplesBeyond(a.read_ms.size(), 0.9),
                 HighestSupportedQuantile(a.read_ms.size(),
                                          {0.5, 0.9, 0.99, 0.999}, 10),
                 static_cast<unsigned long long>(a.appends_ok), kBurstRows,
                 kFastChunkShare * 100);
  } else {
    double dop_speedup = 0.0, cpu_per_wall = 0.0;
    DopProbe(&ctx, &dop_speedup, &cpu_per_wall);
    const double fetch_1t = FetchNsPerPage(&ctx, 1);
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    const double fetch_nt = FetchNsPerPage(&ctx, hw);
    const double decode = DecodeNsPerRow(&ctx);

    const std::vector<Span> finished = spans.Finished();
    const std::map<uint64_t, int64_t> self = SelfTimes(finished);
    const double session_ms =
        Median(SelfTimesNamed(finished, self, "db.session_query")) / 1e6;
    const double tcp_traced_ms =
        Median(SelfTimesNamed(finished, self, "net.request")) / 1e6;
    double exec_ns = 0.0, rows_fetched = 0.0, fetch_sum = 0.0;
    uint64_t sma_plans = 0;
    for (const double ns : SelfTimesNamed(finished, self, "exec.run")) {
      exec_ns += ns;
    }
    for (const double ns : SelfTimesNamed(finished, self, "planner.build")) {
      exec_ns += ns;
    }
    for (const Replay& r : c.replays) {
      rows_fetched += r.rows_fetched;
      fetch_sum += r.fetch_fraction;
      sma_plans += IsSmaPlan(r.kind);
    }
    const double replays =
        static_cast<double>(std::max<size_t>(1, c.replays.size()));
    const Counters& c0 = a.before;
    const Counters& c1 = a.after;
    const uint64_t reads = a.reads_ok;
    const double hits = static_cast<double>(c1.pool.hits - c0.pool.hits);
    const double misses =
        static_cast<double>(c1.pool.misses - c0.pool.misses);
    const storage::IoStats io = c1.io - c0.io;
    const double graded = (c1.qualifying - c0.qualifying) +
                          (c1.disqualifying - c0.disqualifying) +
                          (c1.ambivalent - c0.ambivalent);
    const double appended =
        static_cast<double>(std::max<uint64_t>(1, a.appends_ok));
    const double read_p50 = Quantile(a.read_ms, 0.5);

    add("tpch.load_s", Median(tpch_s), "s");
    add("sma.build_s", Median(sma_s), "s");
    add("sma.bytes_ratio", sma_bytes_ratio, "ratio");
    add("db.parse_us",
        Median(SelfTimesNamed(finished, self, "db.parse")) / 1e3, "us");
    add("db.session_query_ms", session_ms, "ms");
    add("net.request_overhead_ms", tcp_traced_ms - session_ms, "ms");
    add("net.bytes_out_per_query",
        PerQuery(static_cast<double>(c1.net.bytes_out - c0.net.bytes_out),
                 c1.net.requests_total - c0.net.requests_total),
        "B");
    add("net.shed_total", static_cast<double>(inst->server->stats().shed),
        "count");
    add("planner.census_ms",
        Median(SelfTimesNamed(finished, self, "planner.choose")) / 1e6, "ms");
    add("planner.fetch_fraction", fetch_sum / replays, "ratio");
    add("planner.ambivalent_frac",
        graded > 0 ? (c1.ambivalent - c0.ambivalent) / graded : 0.0, "ratio");
    add("planner.sma_plan_frac", static_cast<double>(sma_plans) / replays,
        "ratio");
    add("exec.run_ms",
        MedianPerRequestMs(finished, self, {"planner.build", "exec.run"}),
        "ms");
    add("exec.ns_per_row", rows_fetched > 0 ? exec_ns / rows_fetched : 0.0,
        "ns");
    add("exec.cpu_per_wall", cpu_per_wall, "ratio");
    add("exec.dop_speedup", dop_speedup, "ratio");
    add("storage.pool_hit_ratio",
        hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
    add("storage.pool_misses_per_query", PerQuery(misses, reads), "count");
    add("storage.pool_evictions_per_query",
        PerQuery(static_cast<double>(c1.pool.evictions - c0.pool.evictions),
                 reads),
        "count");
    add("storage.pages_read_per_query",
        PerQuery(static_cast<double>(io.page_reads), reads), "count");
    add("storage.modeled_disk_ms_per_query",
        PerQuery(storage::DiskModel().Seconds(io.sequential_reads,
                                              io.near_reads, io.random_reads) *
                     1e3,
                 reads),
        "ms");
    add("storage.fetch_ns_per_page_1t", fetch_1t, "ns");
    add("storage.fetch_ns_per_page_nt", fetch_nt, "ns");
    add("storage.decode_ns_per_row", decode, "ns");
    add("storage.latch_contended_per_query",
        PerQuery(static_cast<double>(c1.latch.contended - c0.latch.contended),
                 reads),
        "count");
    add("storage.latch_wait_ms",
        PerQuery(static_cast<double>(c1.latch.wait_ns - c0.latch.wait_ns) / 1e6,
                 reads),
        "ms");
    add("storage.wal_bytes_per_row",
        static_cast<double>(a.after.wal.appended_bytes -
                            a.before.wal.appended_bytes) /
            appended,
        "B");
    add("storage.wal_syncs_per_row",
        static_cast<double>(a.after.wal.syncs - a.before.wal.syncs) /
            appended,
        "count");
    add("storage.page_writes_per_row",
        static_cast<double>(a.after.io.page_writes -
                            a.before.io.page_writes) /
            appended,
        "count");
    add("trace.overhead_pct",
        read_p50 > 0 ? (tcp_traced_ms / read_p50 - 1.0) * 100.0 : 0.0, "%");

    std::map<std::string, std::pair<int, int>> mix;  // query: sma plans, all
    for (const Replay& r : c.replays) {
      const char* q = r.query == QueryKind::kQ1   ? "Q1"
                      : r.query == QueryKind::kQ6 ? "Q6"
                                                  : "window";
      mix[q].first += IsSmaPlan(r.kind);
      ++mix[q].second;
    }
    std::string mix_text;
    for (const auto& [q, n] : mix) {
      mix_text += " " + q + " " + std::to_string(n.first) + "/" +
                  std::to_string(n.second);
    }
    std::fprintf(stderr, "%s seed %llu: SMA plans per query kind:%s\n",
                 spec.name, static_cast<unsigned long long>(cfg.seed),
                 mix_text.c_str());
    const std::string path = cfg.work_dir + "/trace-" + spec.name + "-" +
                             std::to_string(cfg.seed) + ".json";
    if (FILE* f = std::fopen(path.c_str(), "w")) {
      const std::string json = spans.ToJson();
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
      std::fprintf(stderr, "%zu spans written to %s\n", finished.size(),
                   path.c_str());
    }
  }
  std::lock_guard<std::mutex> lock(ctx.mu);
  out.correct = ctx.correct;
  out.attempted = ctx.attempted;
  out.failed = ctx.failed;
  out.first_error = ctx.first_error;
  return out;
}

}  // namespace perfbench
