/// \file tpch_sweep.cc
/// Closed-loop TPC-H sweep program: one client issues the eight evaluated
/// queries (1, 3, 4, 6, 12, 14, 18, 19) one at a time through
/// tpch::RunTpchQuery, sweep after sweep, on one of three platform shapes.
/// It measures every layer from outside: it times its own calls into the
/// tpch, planner and storage public functions and reads the counters and
/// `phase.*` timers the engine reports through a StatsRegistry.
///
/// Untraced mode (--trace 0) passes no StatsRegistry to the timed sweeps
/// and makes no extra planner calls. Traced mode (--trace 1) follows every
/// two untraced sweeps with a traced one, records spans around each call
/// into a layer, keeps them in memory and writes them as a Chrome/Perfetto
/// trace when the run ends.
///
/// The program prints one JSON document of raw samples on stdout;
/// tpchbench/run.py turns it into the benchmark's metrics.
///
/// Usage:
///   tpch_sweep --workload <name> --seed <n> --seconds <s> --trace <0|1>
///              [--trace-out <file>]

#include <sys/resource.h>
#include <unistd.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "planner/lower.h"
#include "planner/passes.h"
#include "tpch/queries.h"

namespace modularis {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kQueries[] = {1, 3, 4, 6, 12, 14, 18, 19};
constexpr double kScaleFactor = 0.3;  // 1.8M lineitem rows
/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 3;
/// A tail with ten sweeps above it is at least the median from 22 on.
constexpr int kMinSweeps = 22;

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  for (unsigned i = 0; i < 3; ++i) {
    if (!__get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                     &regs[4 * i + 2], &regs[4 * i + 3])) {
      return "unknown";
    }
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  s.erase(0, s.find_first_not_of(' '));
  return s;
#else
  return "unknown";
#endif
}

/// Fixed integer loop that calls no engine code, run on `threads` threads
/// at once: timed before and after the sweeps, so host drift within and
/// across runs is visible. On a shared VM a stolen vCPU stalls the whole
/// loop, just as it stalls every rank of a synchronized query.
double HostCalibrationSeconds(int threads) {
  auto start = Clock::now();
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([t] {
      uint64_t x = 0x9E3779B97F4A7C15ull + t;
      uint64_t acc = 0;
      for (int i = 0; i < 60'000'000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc += x & 0xFF;
      }
      volatile uint64_t sink = acc;
      (void)sink;
    });
  }
  for (std::thread& t : pool) t.join();
  return Since(start);
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Workload {
  const char* name;
  tpch::Platform platform;
  int ranks;             // MPI ranks or Lambda workers
  int threads_per_rank;  // morsel workers per rank
  bool tcp_exchange;     // two-sided TCP exchange instead of RDMA
  /// Per-rank memory budget (0 = unlimited). For tpch-tcp-spill: the
  /// budget at which both BuildProbe and ReduceByKey spill at SF 0.3.
  size_t memory_limit_bytes;
  /// Sizes the fixed sweep count from --seconds: the count depends on the
  /// requested run length only, never on how fast sweeps actually ran.
  double nominal_sweep_s;
};

constexpr Workload kWorkloads[] = {
    {"tpch-rdma", tpch::Platform::kRdma, 2, 2, false, 0, 1.15},
    {"tpch-lambda", tpch::Platform::kLambda, 4, 1, false, 0, 0.65},
    {"tpch-tcp-spill", tpch::Platform::kRdma, 4, 1, true, size_t{8} << 20,
     1.0},
};

tpch::TpchRunOptions MakeRunOptions(const Workload& w) {
  tpch::TpchRunOptions opts = w.platform == tpch::Platform::kLambda
                                  ? tpch::TpchRunOptions::Lambda(w.ranks)
                                  : tpch::TpchRunOptions::Rdma(w.ranks);
  // Modelled platform cost is accounted but never slept on.
  opts.fabric.throttle = false;
  opts.lambda.throttle = false;
  opts.lambda.s3.throttle = false;
  opts.storage.throttle = false;
  opts.s3select.throttle = false;
  // Explicit, so MODULARIS_NUM_THREADS cannot change the run shape: the
  // executors split this budget evenly across ranks.
  opts.exec.num_threads = w.ranks * w.threads_per_rank;
  opts.exec.tcp_exchange = w.tcp_exchange;
  opts.exec.memory_limit_bytes = w.memory_limit_bytes;
  return opts;
}

/// Modelled Lambda start-up per query: the deepest worker's spawn-tree
/// latency (what LambdaRuntime sleeps when throttled).
double ModelledSpawnSeconds(const tpch::TpchRunOptions& opts) {
  if (opts.platform != tpch::Platform::kLambda) return 0;
  int depth = 0;
  for (int w = 0; w < opts.world_size; ++w) {
    depth = std::max(depth, serverless::LambdaRuntime::SpawnDepth(
                                w, opts.lambda.spawn_fanout));
  }
  return opts.lambda.invoke_latency_seconds * depth;
}

// ---------------------------------------------------------------------------
// JSON output
// ---------------------------------------------------------------------------

std::string Num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

// ---------------------------------------------------------------------------
// Spans (kept in memory, written once at the end)
// ---------------------------------------------------------------------------

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  int Begin(const std::string& name, int parent) {
    if (!enabled_) return -1;
    spans_.push_back({name, Now(), 0, parent});
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int id) {
    if (id >= 0) spans_[id].end_us = Now();
  }

  /// Chrome trace-event JSON (complete events), which Perfetto loads.
  bool Write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                    "\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d}}",
                    s.start_us, s.end_us - s.start_us, i, s.parent);
      out << (i ? ",\n" : "\n") << "{\"name\":" << Quote(s.name) << ","
          << buf;
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  struct Span {
    std::string name;
    double start_us;
    double end_us;
    int parent;
  };
  double Now() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// RAII span.
class Span {
 public:
  Span(Tracer* tracer, const std::string& name, int parent)
      : tracer_(tracer), id_(tracer->Begin(name, parent)) {}
  ~Span() { tracer_->End(id_); }
  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

// ---------------------------------------------------------------------------
// Result check (ints, dates, strings exact; f64 at 1e-6 relative)
// ---------------------------------------------------------------------------

std::string CompareRows(const RowVector& expected, const RowVector& actual) {
  if (!expected.schema().Equals(actual.schema())) {
    return "schema " + actual.schema().ToString() + " != " +
           expected.schema().ToString();
  }
  if (expected.size() != actual.size()) {
    return "rows " + std::to_string(actual.size()) +
           " != " + std::to_string(expected.size());
  }
  for (size_t i = 0; i < expected.size(); ++i) {
    RowRef e = expected.row(i);
    RowRef a = actual.row(i);
    for (size_t c = 0; c < expected.schema().num_fields(); ++c) {
      const int col = static_cast<int>(c);
      bool same = true;
      switch (expected.schema().field(c).type) {
        case AtomType::kInt32:
        case AtomType::kDate:
          same = e.GetInt32(col) == a.GetInt32(col);
          break;
        case AtomType::kInt64:
          same = e.GetInt64(col) == a.GetInt64(col);
          break;
        case AtomType::kFloat64: {
          const double x = e.GetFloat64(col), y = a.GetFloat64(col);
          same = std::fabs(x - y) <=
                 1e-6 * std::max({1.0, std::fabs(x), std::fabs(y)});
          break;
        }
        case AtomType::kString:
          same = e.GetString(col) == a.GetString(col);
          break;
      }
      if (!same) {
        return "row " + std::to_string(i) + " col " + std::to_string(c);
      }
    }
  }
  return "";
}

/// A JSON object of one registry map (counters print as exact integers).
template <typename Map>
std::string JsonMap(const Map& m) {
  std::string out = "{";
  for (const auto& [k, v] : m) {
    if (out.size() > 1) out += ",";
    if constexpr (std::is_integral_v<std::decay_t<decltype(v)>>) {
      out += Quote(k) + ":" + std::to_string(v);
    } else {
      out += Quote(k) + ":" + Num(v);
    }
  }
  return out + "}";
}

// ---------------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string trace_out;
};

struct QueryRecord {
  int query = 0;
  double wall_s = 0;
  double cpu_s = 0;   // process user+sys CPU spent inside RunTpchQuery
  double plan_s = 0;  // traced sweeps: the bench's own planner calls
  std::string error;  // empty = ran and matched the reference
  std::map<std::string, double> times;
  std::map<std::string, int64_t> counters;
};

struct SweepRecord {
  bool traced = false;
  double wall_s = 0;
  double cpu_s = 0;
  int64_t retained_objects = 0;  // q-run* objects after the sweep
  int64_t retained_bytes = 0;
  std::vector<QueryRecord> queries;
};

struct Retained {
  int64_t objects = 0;
  int64_t bytes = 0;
};

/// The objects query runs left behind in the store (exchange partitions
/// and Lambda result files). Listing only: nothing is ever deleted.
Retained ListRetained(const tpch::TpchContext& ctx) {
  Retained r;
  for (const std::string& key : ctx.store->List("q-run")) {
    auto blob = ctx.store->Get(key);
    if (!blob.ok()) continue;
    ++r.objects;
    r.bytes += static_cast<int64_t>((*blob)->size());
  }
  return r;
}

/// The bench's own planner calls for a traced query: logical plan →
/// Optimize → SplitAtDriver → LowerRankPlan into a scratch pipeline, the
/// same steps RunTpchQuery takes before it executes.
Status PlanOnce(int query, const tpch::TpchContext& ctx,
                const tpch::TpchRunOptions& opts) {
  MODULARIS_ASSIGN_OR_RETURN(planner::LogicalPlanPtr root,
                             tpch::TpchLogicalPlan(query));
  planner::PlannerOptions popts;
  popts.catalog = tpch::TpchCatalog(ctx.table_rows);
  root = planner::Optimize(std::move(root), popts, nullptr);
  MODULARIS_ASSIGN_OR_RETURN(planner::DriverSpec driver,
                             planner::SplitAtDriver(root));
  planner::LoweringContext lctx;
  lctx.scan_leaf = opts.platform == tpch::Platform::kRdma
                       ? planner::ScanLeafKind::kMemoryRows
                       : planner::ScanLeafKind::kColumnFile;
  lctx.serverless = opts.platform == tpch::Platform::kLambda;
  lctx.fused = opts.exec.enable_fusion;
  lctx.world = opts.world_size;
  lctx.exec = opts.exec;
  lctx.tag = "bench-plan";
  PipelinePlan scratch;
  return planner::LowerRankPlan(*driver.rank_root, &scratch, &lctx).status();
}

class Runner {
 public:
  Runner(const Args& args, const Workload& w)
      : args_(args),
        workload_(w),
        opts_(MakeRunOptions(w)),
        tracer_(args.trace) {}

  int Run() {
    const double calib_before = HostCalibrationSeconds(opts_.exec.num_threads);
    const int root = tracer_.Begin("run " + std::string(workload_.name), -1);

    // Set-up, several times: generate + prepare + one warm-up sweep. The
    // last set-up's database and context serve the timed sweeps.
    for (int i = 0; i < kSetups; ++i) {
      ctx_.reset();
      db_ = tpch::TpchTables{};
      if (!SetupOnce(root)) return 2;
    }

    // The reference answers, once per run, outside the timed sweeps.
    {
      Span span(&tracer_, "tpch.RunReferenceQuery", root);
      for (int q : kQueries) {
        auto ref = tpch::RunReferenceQuery(q, db_);
        if (!ref.ok()) {
          std::fprintf(stderr, "reference Q%d: %s\n", q,
                       ref.status().ToString().c_str());
          return 2;
        }
        reference_[q] = *ref;
      }
    }
    // The warm-up sweep's answers are checked too.
    CheckSweep(&warmup_, warmup_results_);

    int sweeps = std::max(
        kMinSweeps, static_cast<int>(std::lround(
                        args_.seconds / workload_.nominal_sweep_s)));
    // Traced mode adds one traced sweep after every two untraced ones, so
    // its untraced sample is as large as an untraced run's.
    if (args_.trace) sweeps += (sweeps + 1) / 2;

    Retained before;
    if (args_.trace) {
      Span span(&tracer_, "storage.BlobStore::List", root);
      before = ListRetained(*ctx_);
    }
    const auto measure_start = Clock::now();
    for (int i = 0; i < sweeps; ++i) {
      // Traced sweeps are interleaved with untraced ones (U U T U U T …),
      // so host drift largely cancels out of the overhead ratio.
      const bool traced = args_.trace && (i % 3 == 2);
      std::vector<RowVectorPtr> results;
      SweepRecord rec = Sweep(traced, root, &results);
      CheckSweep(&rec, results);
      if (args_.trace) {
        Span span(&tracer_, "storage.BlobStore::List", root);
        Retained after = ListRetained(*ctx_);
        rec.retained_objects = after.objects - before.objects;
        rec.retained_bytes = after.bytes - before.bytes;
        before = after;
      }
      sweeps_.push_back(std::move(rec));
    }
    const double measure_s = Since(measure_start);
    tracer_.End(root);
    const double calib_after = HostCalibrationSeconds(opts_.exec.num_threads);

    if (args_.trace && !args_.trace_out.empty() &&
        !tracer_.Write(args_.trace_out)) {
      std::fprintf(stderr, "cannot write trace %s\n",
                   args_.trace_out.c_str());
      return 2;
    }
    Print(calib_before, calib_after, measure_s);
    return 0;
  }

 private:
  bool SetupOnce(int root) {
    const int setup = tracer_.Begin("setup", root);
    SetupRecord rec;
    auto t0 = Clock::now();
    {
      Span span(&tracer_, "tpch.GenerateTpch", setup);
      tpch::GeneratorOptions gen;
      gen.scale_factor = kScaleFactor;
      gen.seed = args_.seed;
      db_ = tpch::GenerateTpch(gen);
    }
    rec.generate_s = Since(t0);
    auto t1 = Clock::now();
    {
      Span span(&tracer_, "tpch.PrepareTpch", setup);
      auto ctx = tpch::PrepareTpch(db_, opts_);
      if (!ctx.ok()) {
        std::fprintf(stderr, "prepare: %s\n",
                     ctx.status().ToString().c_str());
        return false;
      }
      ctx_ = ctx.TakeValue();
    }
    rec.prepare_s = Since(t1);
    // Warm-up sweep. Untraced runs give a StatsRegistry to this sweep
    // only: it yields the modelled platform cost, which the timed sweeps
    // cannot report without one.
    auto t2 = Clock::now();
    {
      Span span(&tracer_, "warmup", setup);
      warmup_ = SweepRecord{};
      warmup_results_.clear();
      for (int q : kQueries) {
        StatsRegistry stats;
        warmup_.queries.push_back(RunQuery(q, &stats, &warmup_results_));
      }
    }
    rec.warmup_s = Since(t2);
    tracer_.End(setup);
    setups_.push_back(rec);
    return true;
  }

  /// Runs one query through tpch::RunTpchQuery and appends its answer
  /// (null on failure) to `results`. `stats` is null on untraced sweeps.
  QueryRecord RunQuery(int q, StatsRegistry* stats,
                       std::vector<RowVectorPtr>* results) {
    QueryRecord qr;
    qr.query = q;
    const double cpu0 = ProcessCpuSeconds();
    auto start = Clock::now();
    auto result = tpch::RunTpchQuery(q, *ctx_, opts_, stats);
    qr.wall_s = Since(start);
    qr.cpu_s = ProcessCpuSeconds() - cpu0;
    results->push_back(result.ok() ? *result : nullptr);
    if (!result.ok()) qr.error = result.status().ToString();
    if (stats != nullptr) {
      qr.times = stats->times();
      qr.counters = stats->counters();
    }
    return qr;
  }

  SweepRecord Sweep(bool traced, int root,
                    std::vector<RowVectorPtr>* results) {
    SweepRecord rec;
    rec.traced = traced;
    const int sweep = tracer_.Begin(traced ? "sweep (traced)" : "sweep", root);
    const double cpu0 = ProcessCpuSeconds();
    const auto start = Clock::now();
    for (int q : kQueries) {
      if (!traced) {
        rec.queries.push_back(RunQuery(q, nullptr, results));
        continue;
      }
      Span qspan(&tracer_, "query Q" + std::to_string(q), sweep);
      Status planned;
      double plan_s = 0;
      {
        Span span(&tracer_, "planner", qspan.id());
        auto t = Clock::now();
        planned = PlanOnce(q, *ctx_, opts_);
        plan_s = Since(t);
      }
      StatsRegistry stats;
      QueryRecord qr;
      {
        Span span(&tracer_, "tpch.RunTpchQuery", qspan.id());
        qr = RunQuery(q, &stats, results);
      }
      qr.plan_s = plan_s;
      if (!planned.ok()) qr.error = "plan: " + planned.ToString();
      rec.queries.push_back(std::move(qr));
    }
    rec.wall_s = Since(start);
    rec.cpu_s = ProcessCpuSeconds() - cpu0;
    tracer_.End(sweep);
    return rec;
  }

  /// Compares each query's answer with the reference (outside any timing).
  void CheckSweep(SweepRecord* rec, const std::vector<RowVectorPtr>& results) {
    for (size_t i = 0; i < rec->queries.size(); ++i) {
      QueryRecord& qr = rec->queries[i];
      if (!qr.error.empty()) continue;
      std::string diff = CompareRows(*reference_.at(qr.query), *results[i]);
      if (!diff.empty()) qr.error = "mismatch: " + diff;
    }
  }

  void Print(double calib_before, double calib_after, double measure_s) {
    const Workload& w = workload_;
    std::ostringstream o;
    o << "{\"meta\":{"
      << "\"workload\":" << Quote(w.name)
      << ",\"platform\":" << Quote(tpch::PlatformName(w.platform))
      << ",\"exchange\":" << Quote(w.platform == tpch::Platform::kLambda
                                       ? "s3"
                                       : (w.tcp_exchange ? "tcp" : "rdma"))
      << ",\"ranks\":" << w.ranks
      << ",\"threads_per_rank\":" << w.threads_per_rank
      << ",\"num_threads\":" << opts_.exec.num_threads
      << ",\"memory_limit_bytes\":" << w.memory_limit_bytes
      << ",\"sf\":" << Num(kScaleFactor)
      << ",\"seed\":" << args_.seed
      << ",\"nproc\":" << sysconf(_SC_NPROCESSORS_ONLN)
      << ",\"cpu_model\":" << Quote(CpuModel())
      << ",\"host_calib_before_s\":" << Num(calib_before)
      << ",\"host_calib_after_s\":" << Num(calib_after)
      << ",\"measure_s\":" << Num(measure_s)
      << ",\"spawn_s_per_query\":" << Num(ModelledSpawnSeconds(opts_))
      << ",\"peak_rss_mb\":" << Num(PeakRssMb())
      << "},\"setups\":[";
    for (size_t i = 0; i < setups_.size(); ++i) {
      const SetupRecord& s = setups_[i];
      o << (i ? "," : "") << "{\"generate_s\":" << Num(s.generate_s)
        << ",\"prepare_s\":" << Num(s.prepare_s)
        << ",\"warmup_s\":" << Num(s.warmup_s) << "}";
    }
    o << "],\"warmup\":";
    PrintSweep(o, warmup_);
    o << ",\"sweeps\":[";
    for (size_t i = 0; i < sweeps_.size(); ++i) {
      o << (i ? ",\n" : "\n");
      PrintSweep(o, sweeps_[i]);
    }
    o << "]}\n";
    std::fputs(o.str().c_str(), stdout);
  }

  static void PrintSweep(std::ostringstream& o, const SweepRecord& s) {
    o << "{\"traced\":" << (s.traced ? "true" : "false")
      << ",\"wall_s\":" << Num(s.wall_s) << ",\"cpu_s\":" << Num(s.cpu_s)
      << ",\"retained_objects\":" << s.retained_objects
      << ",\"retained_bytes\":" << s.retained_bytes << ",\"queries\":[";
    for (size_t i = 0; i < s.queries.size(); ++i) {
      const QueryRecord& q = s.queries[i];
      o << (i ? "," : "") << "{\"query\":" << q.query
        << ",\"wall_s\":" << Num(q.wall_s) << ",\"cpu_s\":" << Num(q.cpu_s)
        << ",\"plan_s\":" << Num(q.plan_s)
        << ",\"error\":" << Quote(q.error)
        << ",\"times\":" << JsonMap(q.times)
        << ",\"counters\":" << JsonMap(q.counters) << "}";
    }
    o << "]}";
  }

  struct SetupRecord {
    double generate_s = 0;
    double prepare_s = 0;
    double warmup_s = 0;
  };

  const Args args_;
  const Workload workload_;
  const tpch::TpchRunOptions opts_;
  Tracer tracer_;
  tpch::TpchTables db_;
  std::unique_ptr<tpch::TpchContext> ctx_;
  std::map<int, RowVectorPtr> reference_;
  std::vector<SetupRecord> setups_;
  SweepRecord warmup_;
  std::vector<RowVectorPtr> warmup_results_;
  std::vector<SweepRecord> sweeps_;
};

int Usage(const char* msg) {
  std::fprintf(stderr,
               "%s\nusage: tpch_sweep --workload <tpch-rdma|tpch-lambda|"
               "tpch-tcp-spill> --seed <n> --seconds <s> --trace <0|1> "
               "[--trace-out <file>]\n",
               msg);
  return 2;
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.seconds <= 0) return Usage("--seconds must be positive");
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) return Runner(args, w).Run();
  }
  return Usage(("unknown workload " + args.workload).c_str());
}

}  // namespace
}  // namespace modularis

int main(int argc, char** argv) { return modularis::Main(argc, argv); }
