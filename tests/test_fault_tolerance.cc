#include <cstring>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/fault.h"
#include "mpi/communicator.h"
#include "serverless/lambda.h"
#include "tpch/queries.h"

/// \file test_fault_tolerance.cc
/// The fault layer end to end (docs/DESIGN-fault-tolerance.md): retry
/// classification, deterministic injection, cancellation/deadlines,
/// cross-rank error propagation, and the headline property — TPC-H under
/// injected transient faults is byte-identical to the fault-free run on
/// all three transports.

namespace modularis {
namespace {

// ---------------------------------------------------------------------------
// RetryCall classification
// ---------------------------------------------------------------------------

RetryPolicy FastPolicy(int max_retries) {
  RetryPolicy p;
  p.max_retries = max_retries;
  p.sleep = false;
  return p;
}

TEST(RetryCallTest, TransientFailuresAreRetriedToSuccess) {
  StatsRegistry stats;
  int calls = 0;
  Status st = RetryCall(FastPolicy(4), &stats, "test.site", [&]() -> Status {
    if (++calls <= 2) return Status::IOError("flaky");
    return Status::OK();
  });
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(stats.GetCounter("retry.attempts"), 2);
  EXPECT_EQ(stats.GetCounter("retry.giveups"), 0);
}

TEST(RetryCallTest, NotFoundFailsFastWithoutRetrying) {
  // The old WithRetries helper spun its full budget on kNotFound; the
  // shared policy must classify by StatusCode and fail fast.
  StatsRegistry stats;
  int calls = 0;
  Status st = RetryCall(FastPolicy(10), &stats, "test.site", [&]() -> Status {
    ++calls;
    return Status::NotFound("no such key");
  });
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(stats.GetCounter("retry.attempts"), 0);
  EXPECT_EQ(stats.GetCounter("retry.giveups"), 0);
}

TEST(RetryCallTest, AbortedAndInvalidArgumentFailFast) {
  for (Status terminal : {Status::Aborted("peer died"),
                          Status::InvalidArgument("bad plan")}) {
    int calls = 0;
    Status st = RetryCall(FastPolicy(10), nullptr, "test.site",
                          [&]() -> Status {
                            ++calls;
                            return terminal;
                          });
    EXPECT_EQ(st.code(), terminal.code());
    EXPECT_EQ(calls, 1);
  }
}

TEST(RetryCallTest, ResourceExhaustedIsRetryable) {
  int calls = 0;
  Status st = RetryCall(FastPolicy(4), nullptr, "test.site", [&]() -> Status {
    if (++calls == 1) return Status::ResourceExhausted("throttled");
    return Status::OK();
  });
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(calls, 2);
}

TEST(RetryCallTest, ExhaustedBudgetGivesUpWithLastError) {
  StatsRegistry stats;
  int calls = 0;
  Status st = RetryCall(FastPolicy(3), &stats, "test.site", [&]() -> Status {
    ++calls;
    return Status::IOError("still down");
  });
  EXPECT_EQ(st.code(), StatusCode::kIOError);
  EXPECT_EQ(calls, 4);  // 1 attempt + 3 retries
  EXPECT_EQ(stats.GetCounter("retry.attempts"), 3);
  EXPECT_EQ(stats.GetCounter("retry.giveups"), 1);
}

TEST(RetryCallTest, WorksWithResultReturningCallables) {
  int calls = 0;
  Result<int> r = RetryCall(FastPolicy(4), nullptr, "test.site",
                            [&]() -> Result<int> {
                              if (++calls == 1) return Status::IOError("eek");
                              return 42;
                            });
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(calls, 2);
}

TEST(RetryCallTest, CancelledTokenStopsTheRetryLoop) {
  CancellationToken cancel;
  cancel.Cancel(Status::Aborted("query dead"));
  int calls = 0;
  Status st = RetryCall(FastPolicy(10), nullptr, "test.site",
                        [&]() -> Status {
                          ++calls;
                          return Status::IOError("transient");
                        },
                        &cancel);
  // The in-flight attempt completes, but no retries are scheduled into a
  // cancelled query.
  EXPECT_EQ(st.code(), StatusCode::kIOError);
  EXPECT_EQ(calls, 1);
}

TEST(RetryPolicyTest, BackoffIsDeterministicBoundedAndGrows) {
  RetryPolicy p;
  const uint64_t key = fault_internal::HashCallSite("blob.get");
  double prev = 0;
  for (int attempt = 0; attempt < 10; ++attempt) {
    double a = p.BackoffSeconds(attempt, key);
    double b = p.BackoffSeconds(attempt, key);
    EXPECT_EQ(a, b) << "jitter must be a pure function of (attempt, key)";
    EXPECT_GE(a, p.base_backoff_seconds);
    // Cap plus at most 50% jitter.
    EXPECT_LE(a, p.max_backoff_seconds * 1.5);
    if (attempt > 0 && prev < p.max_backoff_seconds) EXPECT_GT(a, 0);
    prev = a;
  }
  // Different sites draw different jitter.
  EXPECT_NE(p.BackoffSeconds(1, key),
            p.BackoffSeconds(1, fault_internal::HashCallSite("fabric.put")));
}

// ---------------------------------------------------------------------------
// FaultInjector determinism
// ---------------------------------------------------------------------------

TEST(FaultInjectorTest, SameSeedSameSaltDrawsTheSameDecisions) {
  FaultOptions fo;
  fo.transient_failure_rate = 0.2;
  FaultInjector a(fo), b(fo);
  for (int i = 0; i < 2000; ++i) {
    EXPECT_EQ(a.MaybeInject(FaultSite::kBlobGet).ok(),
              b.MaybeInject(FaultSite::kBlobGet).ok())
        << "call " << i;
  }
  EXPECT_EQ(a.total_injected(), b.total_injected());
  EXPECT_GT(a.total_injected(), 0);
  EXPECT_LT(a.total_injected(), 2000);
}

TEST(FaultInjectorTest, SitesDrawIndependentSequences) {
  FaultOptions fo;
  fo.transient_failure_rate = 0.2;
  FaultInjector inj(fo);
  int64_t get_failures = 0, put_failures = 0;
  for (int i = 0; i < 2000; ++i) {
    if (!inj.MaybeInject(FaultSite::kBlobGet).ok()) ++get_failures;
    if (!inj.MaybeInject(FaultSite::kBlobPut).ok()) ++put_failures;
  }
  EXPECT_EQ(inj.injected(FaultSite::kBlobGet), get_failures);
  EXPECT_EQ(inj.injected(FaultSite::kBlobPut), put_failures);
  EXPECT_GT(get_failures, 200);
  EXPECT_GT(put_failures, 200);
}

TEST(FaultInjectorTest, DisabledInjectorNeverFires) {
  FaultInjector inj{FaultOptions{}};
  EXPECT_FALSE(inj.enabled());
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(inj.MaybeInject(FaultSite::kFabricPut).ok());
  }
  EXPECT_EQ(inj.total_injected(), 0);
}

TEST(FaultInjectorTest, ArmedInjectorAtRateZeroNeverFires) {
  // The bench-gate configuration: full decision path, zero probability.
  FaultOptions fo;
  fo.armed = true;
  FaultInjector inj(fo);
  EXPECT_TRUE(inj.enabled());
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(inj.MaybeInject(FaultSite::kFabricPut).ok());
  }
  EXPECT_EQ(inj.total_injected(), 0);
}

// ---------------------------------------------------------------------------
// CancellationToken
// ---------------------------------------------------------------------------

TEST(CancellationTokenTest, FirstCauseWins) {
  CancellationToken token;
  EXPECT_FALSE(token.ShouldStop());
  EXPECT_TRUE(token.Check().ok());
  token.Cancel(Status::IOError("first"));
  token.Cancel(Status::Internal("second"));
  EXPECT_TRUE(token.ShouldStop());
  EXPECT_EQ(token.status().code(), StatusCode::kIOError);
}

TEST(CancellationTokenTest, DeadlineLatchesAsAborted) {
  CancellationToken token;
  token.SetDeadlineAfter(1e-9);
  while (!token.ShouldStop()) {
  }
  EXPECT_EQ(token.status().code(), StatusCode::kAborted);
  EXPECT_NE(token.status().ToString().find("deadline exceeded"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Cross-rank error propagation (no deadlock)
// ---------------------------------------------------------------------------

net::FabricOptions UnthrottledFabric() {
  net::FabricOptions o;
  o.throttle = false;
  return o;
}

TEST(RankFailureTest, BarrierPeersAbortWhenOneRankFails) {
  mpi::MpiRunReport report;
  Status st = mpi::MpiRuntime::Run(
      4, UnthrottledFabric(),
      [](mpi::Communicator& comm) -> Status {
        if (comm.rank() == 2) return Status::IOError("rank 2 lost its disk");
        // Peers head straight into a collective the failed rank will never
        // join: poisoning must wake them with kAborted, not hang them.
        return comm.Barrier();
      },
      &report);
  EXPECT_EQ(st.code(), StatusCode::kIOError) << st.ToString();
  ASSERT_EQ(report.rank_status.size(), 4u);
  for (int r = 0; r < 4; ++r) {
    EXPECT_FALSE(report.rank_status[r].ok()) << "rank " << r;
  }
  EXPECT_EQ(report.rank_status[2].code(), StatusCode::kIOError);
  for (int r : {0, 1, 3}) {
    EXPECT_EQ(report.rank_status[r].code(), StatusCode::kAborted);
    EXPECT_NE(report.rank_status[r].ToString().find("peer"),
              std::string::npos);
  }
}

TEST(RankFailureTest, RecvBlockedPeersAbortWhenOneRankFails) {
  mpi::MpiRunReport report;
  Status st = mpi::MpiRuntime::Run(
      3, UnthrottledFabric(),
      [](mpi::Communicator& comm) -> Status {
        if (comm.rank() == 0) {
          return Status::ResourceExhausted("rank 0 out of memory");
        }
        // Peers block in a two-sided Recv on the dead rank.
        std::vector<uint8_t> buf;
        return comm.fabric().Recv(comm.rank(), 0, &buf);
      },
      &report);
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted) << st.ToString();
  ASSERT_EQ(report.rank_status.size(), 3u);
  EXPECT_EQ(report.rank_status[0].code(), StatusCode::kResourceExhausted);
  for (int r : {1, 2}) {
    EXPECT_EQ(report.rank_status[r].code(), StatusCode::kAborted)
        << report.rank_status[r].ToString();
  }
}

TEST(RankFailureTest, PoisonStatusesAreNotRetryable) {
  // A poisoned channel must fail fast through RetryCall, not burn the
  // backoff budget: the wrappers are kAborted by construction.
  mpi::World world(2, UnthrottledFabric());
  world.Poison(Status::IOError("rank died"));
  EXPECT_FALSE(IsRetryableStatus(world.fabric().poison_status()));
  EXPECT_EQ(world.poison_cause().code(), StatusCode::kIOError);
}

// ---------------------------------------------------------------------------
// TPC-H under injected faults: byte-parity with the fault-free run
// ---------------------------------------------------------------------------

const tpch::TpchTables& Db() {
  static tpch::TpchTables db = [] {
    tpch::GeneratorOptions gen;
    gen.scale_factor = 0.005;  // ~30k lineitem rows
    gen.seed = 11;
    return tpch::GenerateTpch(gen);
  }();
  return db;
}

/// Exact equality, bitwise for doubles: under transient-only faults the
/// retries must be invisible, so the result is the byte-for-byte same
/// RowVector the fault-free run produced (docs/DESIGN-fault-tolerance.md).
void ExpectRowsIdentical(const RowVector& expected, const RowVector& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  ASSERT_TRUE(expected.schema().Equals(actual.schema()));
  for (size_t i = 0; i < expected.size(); ++i) {
    RowRef e = expected.row(i);
    RowRef a = actual.row(i);
    for (size_t c = 0; c < expected.schema().num_fields(); ++c) {
      int col = static_cast<int>(c);
      switch (expected.schema().field(c).type) {
        case AtomType::kInt32:
        case AtomType::kDate:
          ASSERT_EQ(e.GetInt32(col), a.GetInt32(col))
              << "row " << i << " col " << c;
          break;
        case AtomType::kInt64:
          ASSERT_EQ(e.GetInt64(col), a.GetInt64(col))
              << "row " << i << " col " << c;
          break;
        case AtomType::kFloat64: {
          double x = e.GetFloat64(col), y = a.GetFloat64(col);
          ASSERT_EQ(std::memcmp(&x, &y, sizeof(double)), 0)
              << "row " << i << " col " << c << ": " << x << " vs " << y;
          break;
        }
        case AtomType::kString:
          ASSERT_EQ(e.GetString(col), a.GetString(col))
              << "row " << i << " col " << c;
          break;
      }
    }
  }
}

tpch::TpchRunOptions Unthrottled(tpch::TpchRunOptions opts) {
  opts.fabric.throttle = false;
  opts.lambda.throttle = false;
  opts.lambda.s3.throttle = false;
  opts.storage.throttle = false;
  opts.s3select.throttle = false;
  opts.exec.network_radix_bits = 4;
  return opts;
}

enum class FaultTransport { kMpi, kTcp, kLambda };

const char* TransportName(FaultTransport t) {
  switch (t) {
    case FaultTransport::kMpi: return "Mpi";
    case FaultTransport::kTcp: return "Tcp";
    case FaultTransport::kLambda: return "Lambda";
  }
  return "unknown";
}

tpch::TpchRunOptions TransportOptions(FaultTransport transport, int world) {
  tpch::TpchRunOptions opts;
  switch (transport) {
    case FaultTransport::kMpi:
      opts = tpch::TpchRunOptions::Rdma(world);
      break;
    case FaultTransport::kTcp:
      opts = tpch::TpchRunOptions::Rdma(world);
      opts.exec.tcp_exchange = true;
      break;
    case FaultTransport::kLambda:
      opts = tpch::TpchRunOptions::Lambda(world);
      break;
  }
  return Unthrottled(opts);
}

/// Arms every transport-relevant injector at `rate`. With max_retries = 8
/// a giveup needs 9 consecutive injected failures: p = 0.05^9 ≈ 2e-12 per
/// call, so the faulted runs below complete deterministically in practice.
void ArmFaults(tpch::TpchRunOptions* opts, double rate) {
  opts->fabric.fault.transient_failure_rate = rate;
  opts->storage.fault.transient_failure_rate = rate;
  opts->lambda.s3.fault.transient_failure_rate = rate;
  opts->exec.retry.max_retries = 8;
  opts->exec.retry.sleep = false;
}

struct FaultCase {
  int query;
  FaultTransport transport;
  int world;
};

class FaultParityTest : public ::testing::TestWithParam<FaultCase> {};

TEST_P(FaultParityTest, TransientFaultsAreInvisibleInTheResult) {
  const FaultCase& p = GetParam();
  tpch::TpchRunOptions clean = TransportOptions(p.transport, p.world);
  // Prepare fault-free: the injectors under test are the query-time ones.
  auto ctx = tpch::PrepareTpch(Db(), clean);
  ASSERT_TRUE(ctx.ok()) << ctx.status().ToString();

  StatsRegistry clean_stats;
  auto expected = tpch::RunTpchQuery(p.query, **ctx, clean, &clean_stats);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  tpch::TpchRunOptions faulted = clean;
  ArmFaults(&faulted, 0.05);
  StatsRegistry fault_stats;
  auto actual = tpch::RunTpchQuery(p.query, **ctx, faulted, &fault_stats);
  ASSERT_TRUE(actual.ok()) << actual.status().ToString();

  ExpectRowsIdentical(**expected, **actual);

  // An injection must never out-live the retry budget (0.05^9 per call).
  EXPECT_EQ(fault_stats.GetCounter("retry.giveups"), 0);

  // And the fault-free run saw none of it: injection off means zero
  // fault.* / retry.* keys, not zero-valued ones.
  for (const auto& [key, value] : clean_stats.counters()) {
    EXPECT_NE(key.rfind("fault.", 0), 0u) << key << "=" << value;
    EXPECT_NE(key.rfind("retry.", 0), 0u) << key << "=" << value;
  }
}

std::vector<FaultCase> FaultCases() {
  std::vector<FaultCase> cases;
  // Every implemented query rides the full transport matrix at world 2;
  // the scan-, join- and exchange-heavy trio {1, 6, 12} also runs at
  // world 4 to vary the partition fan-out under faults.
  for (int q : {1, 3, 4, 6, 12, 14, 18, 19}) {
    for (FaultTransport t : {FaultTransport::kMpi, FaultTransport::kTcp,
                             FaultTransport::kLambda}) {
      cases.push_back({q, t, 2});
      if (q == 1 || q == 6 || q == 12) cases.push_back({q, t, 4});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    QueriesTransportsWorlds, FaultParityTest,
    ::testing::ValuesIn(FaultCases()),
    [](const ::testing::TestParamInfo<FaultCase>& info) {
      return "Q" + std::to_string(info.param.query) + "_" +
             TransportName(info.param.transport) + "_w" +
             std::to_string(info.param.world);
    });

/// The tiny test database keeps per-query traffic low, so the 0.05 parity
/// matrix above can legitimately draw zero faults for some (query,
/// transport, world) cells. These dedicated per-transport runs crank the
/// rate until injections are certain, proving the hooks are actually
/// wired into every transport — and that parity still holds under heavy
/// fault pressure.
class FaultHooksTest : public ::testing::TestWithParam<FaultTransport> {};

TEST_P(FaultHooksTest, HooksFireAndRetriesStayInvisible) {
  tpch::TpchRunOptions clean = TransportOptions(GetParam(), 4);
  auto ctx = tpch::PrepareTpch(Db(), clean);
  ASSERT_TRUE(ctx.ok()) << ctx.status().ToString();

  StatsRegistry clean_stats;
  auto expected = tpch::RunTpchQuery(12, **ctx, clean, &clean_stats);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  tpch::TpchRunOptions faulted = clean;
  ArmFaults(&faulted, 0.3);
  StatsRegistry fault_stats;
  auto actual = tpch::RunTpchQuery(12, **ctx, faulted, &fault_stats);
  ASSERT_TRUE(actual.ok()) << actual.status().ToString();
  ExpectRowsIdentical(**expected, **actual);

  int64_t injected = 0;
  for (const auto& [key, value] : fault_stats.counters()) {
    if (key.rfind("fault.injected.", 0) == 0) injected += value;
  }
  EXPECT_GT(injected, 0);
  EXPECT_GT(fault_stats.GetCounter("retry.attempts"), 0);
}

INSTANTIATE_TEST_SUITE_P(
    AllTransports, FaultHooksTest,
    ::testing::Values(FaultTransport::kMpi, FaultTransport::kTcp,
                      FaultTransport::kLambda),
    [](const ::testing::TestParamInfo<FaultTransport>& info) {
      return TransportName(info.param);
    });

TEST(FaultParityTest, InjectedFaultCountsAreReproducible) {
  // Same seed, same plan → the same number of injected faults per site
  // on a rerun, even though thread scheduling permutes which worker draws
  // which sequence slot.
  tpch::TpchRunOptions opts = TransportOptions(FaultTransport::kLambda, 4);
  auto ctx = tpch::PrepareTpch(Db(), opts);
  ASSERT_TRUE(ctx.ok());
  ArmFaults(&opts, 0.3);

  std::map<std::string, int64_t> first;
  for (int run = 0; run < 2; ++run) {
    StatsRegistry stats;
    auto result = tpch::RunTpchQuery(12, **ctx, opts, &stats);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    std::map<std::string, int64_t> injected;
    for (const auto& [key, value] : stats.counters()) {
      if (key.rfind("fault.injected.", 0) == 0) injected[key] = value;
    }
    EXPECT_FALSE(injected.empty());
    if (run == 0) {
      first = injected;
    } else {
      EXPECT_EQ(first, injected);
    }
  }
}

// ---------------------------------------------------------------------------
// Unrecoverable failures abort the whole query
// ---------------------------------------------------------------------------

TEST(LambdaCrashTest, WorkerCrashAbortsTheWholeQuery) {
  tpch::TpchRunOptions opts = TransportOptions(FaultTransport::kLambda, 4);
  auto ctx = tpch::PrepareTpch(Db(), opts);
  ASSERT_TRUE(ctx.ok());
  // Workers 1..3 sit at spawn depth 2 of the fan-out-8 tree; crashing that
  // depth kills them before their plan runs. kAborted is not retryable, so
  // the query must abort cleanly with the crash as the cause.
  opts.lambda.fault.lambda_crash_depth = 2;
  StatsRegistry stats;
  auto result = tpch::RunTpchQuery(6, **ctx, opts, &stats);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kAborted);
  EXPECT_NE(result.status().ToString().find("injected at spawn depth"),
            std::string::npos)
      << result.status().ToString();
  EXPECT_GE(stats.GetCounter("fault.injected.lambda.spawn"), 1);
}

/// The deadline arms the query's one cancellation token in the driver's
/// ExecScope, which every rank or worker scope shares: each transport
/// must abort with the deadline as the cause.
class DeadlineTest : public ::testing::TestWithParam<FaultTransport> {};

TEST_P(DeadlineTest, ExpiredDeadlineAbortsTheQueryOnEveryRank) {
  tpch::TpchRunOptions opts = TransportOptions(GetParam(), 2);
  auto ctx = tpch::PrepareTpch(Db(), opts);
  ASSERT_TRUE(ctx.ok());
  opts.exec.deadline_seconds = 1e-9;  // expires before the first morsel
  StatsRegistry stats;
  auto result = tpch::RunTpchQuery(1, **ctx, opts, &stats);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kAborted);
  EXPECT_NE(result.status().ToString().find("deadline exceeded"),
            std::string::npos)
      << result.status().ToString();
}

INSTANTIATE_TEST_SUITE_P(
    AllTransports, DeadlineTest,
    ::testing::Values(FaultTransport::kMpi, FaultTransport::kTcp,
                      FaultTransport::kLambda),
    [](const ::testing::TestParamInfo<FaultTransport>& info) {
      return TransportName(info.param);
    });

}  // namespace
}  // namespace modularis
