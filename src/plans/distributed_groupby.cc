#include "plans/distributed_groupby.h"

#include <cstdio>
#include <cstdlib>

#include "planner/kv_lower.h"

namespace modularis::plans {

namespace {

namespace lp = planner::lp;

/// The Fig. 5 template as IR: SUM(value) GROUP BY key over the exchanged
/// base relation. The physical shapes (compressed exchange, nested local
/// partitioning, key restoration before ReduceByKey) live in the
/// planner's KV lowering.
planner::LogicalPlanPtr GroupByTemplate() {
  auto data = lp::Exchange(lp::Scan(0, "data", KeyValueSchema()), 0);
  return lp::Aggregate(
      std::move(data), {0},
      {AggSpec{AggKind::kSum, ex::Col(1), "sum", AtomType::kInt64}});
}

}  // namespace

SubOpPtr BuildGroupByRankPlan(const DistGroupByOptions& opts) {
  planner::KvLowerOptions kv;
  kv.compress = opts.compress;
  kv.exec = opts.exec;
  auto lowered = planner::LowerKvGroupBy(*GroupByTemplate(), kv);
  if (!lowered.ok()) {
    // Unreachable: the template above is exactly the accepted shape.
    std::fprintf(stderr, "BuildGroupByRankPlan: %s\n",
                 lowered.status().ToString().c_str());
    std::abort();
  }
  return lowered.TakeValue();
}

Result<RowVectorPtr> RunDistributedGroupBy(
    const std::vector<RowVectorPtr>& fragments,
    const DistGroupByOptions& opts, StatsRegistry* stats) {
  if (static_cast<int>(fragments.size()) != opts.world_size) {
    return Status::InvalidArgument(
        "RunDistributedGroupBy: need one fragment per rank");
  }
  MpiExecutor::Config config;
  config.world_size = opts.world_size;
  config.fabric = opts.fabric;
  config.plan_factory = [&opts](int) { return BuildGroupByRankPlan(opts); };
  config.rank_params = [&fragments](int rank) {
    return Tuple{Item(fragments[rank])};
  };
  ExecScope driver(opts.exec, stats);
  MpiExecutor executor(std::move(config));
  return driver.Collect(&executor, GroupByOutSchema());
}

}  // namespace modularis::plans
