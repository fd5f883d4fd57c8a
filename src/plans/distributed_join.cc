#include "plans/distributed_join.h"

#include <cstdio>
#include <cstdlib>

#include "planner/kv_lower.h"

namespace modularis::plans {

namespace {

namespace lp = planner::lp;

/// The Fig. 3 template as IR: both base relations cross the network
/// exactly once; inner joins prune the duplicate key column. The
/// physical shapes (compressed exchange, nested local partitioning,
/// key-bit recovery) live in the planner's KV lowering.
planner::LogicalPlanPtr JoinTemplate(JoinType type) {
  auto inner = lp::Exchange(lp::Scan(0, "inner", KeyValueSchema()), 0);
  auto outer = lp::Exchange(lp::Scan(1, "outer", KeyValueSchema()), 0);
  auto join = lp::Join(std::move(inner), std::move(outer), type, 0, 0);
  if (type != JoinType::kInner) return join;
  return lp::Project(std::move(join),
                     {MapOutput::Pass(0), MapOutput::Pass(1),
                      MapOutput::Pass(3)},
                     JoinOutSchema());
}

planner::KvLowerOptions KvOptions(const DistJoinOptions& opts) {
  planner::KvLowerOptions kv;
  kv.compress = opts.compress;
  kv.exec = opts.exec;
  return kv;
}

}  // namespace

SubOpPtr BuildJoinRankPlan(const DistJoinOptions& opts) {
  auto lowered =
      planner::LowerKvJoin(*JoinTemplate(opts.join_type), KvOptions(opts));
  if (!lowered.ok()) {
    // Unreachable: the template above is exactly the accepted shape.
    std::fprintf(stderr, "BuildJoinRankPlan: %s\n",
                 lowered.status().ToString().c_str());
    std::abort();
  }
  return lowered.TakeValue();
}

Result<RowVectorPtr> RunDistributedJoin(
    const std::vector<RowVectorPtr>& inner,
    const std::vector<RowVectorPtr>& outer, const DistJoinOptions& opts,
    StatsRegistry* stats) {
  if (static_cast<int>(inner.size()) != opts.world_size ||
      static_cast<int>(outer.size()) != opts.world_size) {
    return Status::InvalidArgument(
        "RunDistributedJoin: need one input fragment per rank");
  }
  MpiExecutor::Config config;
  config.world_size = opts.world_size;
  config.fabric = opts.fabric;
  config.plan_factory = [&opts](int) { return BuildJoinRankPlan(opts); };
  config.rank_params = [&inner, &outer](int rank) {
    return Tuple{Item(inner[rank]), Item(outer[rank])};
  };
  ExecScope driver(opts.exec, stats);
  MpiExecutor executor(std::move(config));
  Schema out_schema = opts.join_type == JoinType::kInner ? JoinOutSchema()
                                                         : KeyValueSchema();
  return driver.Collect(&executor, out_schema);
}

}  // namespace modularis::plans
