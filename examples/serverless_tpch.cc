/// \file serverless_tpch.cc
/// TPC-H Q12 on the serverless platform (Fig. 7): Lambda-profile workers,
/// base tables as ColumnFiles on simulated S3, the Lambada write-combining
/// exchange — and the exact same query on the RDMA platform for
/// comparison. Only the executor + exchange + scan leaves differ between
/// the two runs; that is the paper's headline claim.
///
///   $ ./example_serverless_tpch

#include <cstdio>

#include "tpch/queries.h"

using namespace modularis;  // NOLINT — example brevity

namespace {

void PrintResult(const RowVector& rows) {
  std::printf("%-12s %12s %12s\n", "l_shipmode", "high_count", "low_count");
  for (size_t i = 0; i < rows.size(); ++i) {
    RowRef r = rows.row(i);
    std::printf("%-12s %12lld %12lld\n",
                std::string(r.GetString(0)).c_str(),
                static_cast<long long>(r.GetInt64(1)),
                static_cast<long long>(r.GetInt64(2)));
  }
}

}  // namespace

int main() {
  tpch::GeneratorOptions gen;
  gen.scale_factor = 0.02;
  tpch::TpchTables db = tpch::GenerateTpch(gen);
  std::printf("TPC-H SF %.2f: %zu lineitem rows\n\n", gen.scale_factor,
              db.lineitem->num_rows());

  for (tpch::Platform platform :
       {tpch::Platform::kLambda, tpch::Platform::kRdma}) {
    tpch::TpchRunOptions opts = platform == tpch::Platform::kLambda
                                    ? tpch::TpchRunOptions::Lambda(4)
                                    : tpch::TpchRunOptions::Rdma(4);
    auto ctx = tpch::PrepareTpch(db, opts);
    if (!ctx.ok()) {
      std::fprintf(stderr, "prepare: %s\n", ctx.status().ToString().c_str());
      return 1;
    }
    StatsRegistry stats;
    auto result = tpch::RunTpchQuery(12, **ctx, opts, &stats);
    if (!result.ok()) {
      std::fprintf(stderr, "Q12: %s\n", result.status().ToString().c_str());
      return 1;
    }
    std::printf("=== Q12 on %s ===\n", tpch::PlatformName(platform));
    PrintResult(**result);
    if (platform == tpch::Platform::kLambda) {
      std::printf("S3 traffic: %lld requests, %.1f MB\n\n",
                  static_cast<long long>(stats.GetCounter("s3.requests")),
                  stats.GetCounter("s3.bytes") / 1e6);
    } else {
      std::printf("RDMA traffic: %.1f MB one-sided writes\n",
                  stats.GetCounter("net.bytes_sent") / 1e6);
    }
    std::printf("memory: %.2f MB peak, %lld denials, %.1f MB spilled\n\n",
                stats.GetCounter("mem.peak_bytes") / 1e6,
                static_cast<long long>(stats.GetCounter("mem.denials")),
                stats.GetCounter("spill.bytes") / 1e6);
  }

  // The same query under a per-worker memory budget (the 3 GB Lambda
  // ceiling, scaled to this toy data): blocking operators degrade to
  // spilling through the worker's S3 path, and the result is
  // byte-identical to the unlimited run (docs/DESIGN-memory.md).
  {
    tpch::TpchRunOptions opts = tpch::TpchRunOptions::Lambda(4);
    opts.exec.memory_limit_bytes = 8 << 10;
    auto ctx = tpch::PrepareTpch(db, opts);
    if (!ctx.ok()) return 1;
    StatsRegistry stats;
    auto result = tpch::RunTpchQuery(12, **ctx, opts, &stats);
    if (!result.ok()) {
      std::fprintf(stderr, "budgeted Q12: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    std::printf("=== Q12 on %s, 8 KB worker budget ===\n",
                tpch::PlatformName(tpch::Platform::kLambda));
    PrintResult(**result);
    std::printf(
        "memory: %.2f MB peak worker, %lld denials; spilled %.1f MB in "
        "%lld chunks across %lld partitions\n\n",
        stats.GetCounter("mem.peak_bytes") / 1e6,
        static_cast<long long>(stats.GetCounter("mem.denials")),
        stats.GetCounter("spill.bytes") / 1e6,
        static_cast<long long>(stats.GetCounter("spill.chunks")),
        static_cast<long long>(stats.GetCounter("spill.partitions")));
  }

  std::printf(
      "Both platforms ran the same query plan; only the executor and the "
      "exchange/scan\nsub-operators were swapped (paper §4.4).\n");
  return 0;
}
