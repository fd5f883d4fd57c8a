#ifndef MODULARIS_CORE_EXEC_SCOPE_H_
#define MODULARIS_CORE_EXEC_SCOPE_H_

#include <functional>
#include <string>
#include <vector>

#include "core/sub_operator.h"

/// \file exec_scope.h
/// The platform-neutral half of every executor (paper §5.2.1: a platform
/// change touches only the sub-operators that depend on it). An ExecScope
/// is one rank, one Lambda worker or the query driver; FleetExecutor runs
/// one scope per rank or worker and folds them into the driver's stream.

namespace modularis {

class ExecScope {
 public:
  /// The query driver: scope 0 of 1 under `options`, reporting into
  /// `stats` (null = a private registry). Owns the query's cancellation
  /// token, armed with options.deadline_seconds.
  ExecScope(const ExecOptions& options, StatsRegistry* stats);

  /// Scope `rank` of `world` under an executor's context `parent`: its
  /// options with a max(1, threads / world) share of the thread budget
  /// (scopes are concurrent threads of this process), its cancellation
  /// token and spill store, `params` as the plan-input frame, and
  /// `total_key` timing the scope to Finish(). Under a parent without a
  /// token the scope owns one, armed with the deadline; peers then learn
  /// of its failure only through the runtime's poison.
  ExecScope(const ExecContext& parent, int rank, int world,
            StatsRegistry* stats, Tuple params, const std::string& total_key);

  /// The scope's context; platforms add their services (comm, blob, ...).
  ExecContext* ctx() { return &ctx_; }

  /// Opens `plan`, hands every tuple it yields to `sink`, closes it.
  /// Checks the query token at the start and per tuple (a serial plan on
  /// a tiny input must honour the deadline too); a failure cancels the
  /// token, so peer scopes stop instead of computing into a dead query.
  Status Drain(SubOperator* plan,
               const std::function<void(const Tuple&)>& sink);

  /// Drain() concatenating every collection and row item the plan yields
  /// into one RowVector of `schema`.
  Result<RowVectorPtr> Collect(SubOperator* plan, const Schema& schema);

  /// Stops the total timer and reports mem.peak_bytes / mem.denials when
  /// non-zero — counters, so folded scopes sum (docs/DESIGN-memory.md).
  void Finish();

 private:
  void Wire(const ExecOptions& options, CancellationToken* cancel, int world,
            StatsRegistry* stats);

  /// Declared first: operator ScopedCharges release into the budget when
  /// a plan is destroyed, so it must outlive every plan the scope runs.
  MemoryBudget budget_;
  CancellationToken own_cancel_;
  Tuple params_;
  ExecContext ctx_;
  ScopedTimer total_;
};

/// The half MpiExecutor and LambdaExecutor share: per-scope stats,
/// results and arenas, one fold and one Next() over the results.
class FleetExecutor : public SubOperator {
 public:
  bool Next(Tuple* out) override;

 protected:
  explicit FleetExecutor(std::string name) : SubOperator(std::move(name)) {}

  /// Resets the fleet for an Open of `size` scopes under `ctx`.
  void BeginFleet(ExecContext* ctx, int size);
  StatsRegistry* scope_stats(int index) { return &scope_stats_[index]; }

  /// Drains `plan` into the scope's results, then finishes the scope.
  Status RunScope(ExecScope* scope, SubOpPtr plan);

  /// Merges the runtime's report (its fault.injected.* counters) even on
  /// failure, so the faults that aborted a query show up. On success,
  /// folds every scope's stats with MergeMax (a phase costs what its
  /// slowest scope took; counters sum) and concatenates the results in
  /// scope order.
  Status FoldFleet(Status run_st, const StatsRegistry& runtime_report);

 private:
  std::vector<StatsRegistry> scope_stats_;
  std::vector<std::vector<Tuple>> scope_results_;
  std::vector<std::vector<RowVectorPtr>> arenas_;
  std::vector<Tuple> results_;
  size_t emit_pos_ = 0;
};

}  // namespace modularis

#endif  // MODULARIS_CORE_EXEC_SCOPE_H_
