#include "core/exec_scope.h"

#include <algorithm>
#include <utility>

namespace modularis {

ExecScope::ExecScope(const ExecOptions& options, StatsRegistry* stats)
    : budget_(options.memory_limit_bytes), total_(nullptr, std::string()) {
  Wire(options, nullptr, 1, stats);
}

ExecScope::ExecScope(const ExecContext& parent, int rank, int world,
                     StatsRegistry* stats, Tuple params,
                     const std::string& total_key)
    : budget_(parent.options.memory_limit_bytes),
      params_(std::move(params)),
      total_(stats, total_key) {
  ctx_.rank = rank;
  ctx_.world = world;
  ctx_.spill_store = parent.spill_store;
  ctx_.PushParams(&params_);
  Wire(parent.options, parent.cancel, world, stats);
}

void ExecScope::Wire(const ExecOptions& options, CancellationToken* cancel,
                     int world, StatsRegistry* stats) {
  if (cancel == nullptr) {
    own_cancel_.SetDeadlineAfter(options.deadline_seconds);
    cancel = &own_cancel_;
  }
  ctx_.cancel = cancel;
  ctx_.budget = &budget_;
  ctx_.options = options;
  ctx_.options.num_threads =
      std::max(1, options.ResolvedNumThreads() / world);
  if (stats != nullptr) ctx_.stats = stats;
}

Status ExecScope::Drain(SubOperator* plan,
                        const std::function<void(const Tuple&)>& sink) {
  Status st = [&]() -> Status {
    MODULARIS_RETURN_NOT_OK(ctx_.cancel->Check());
    MODULARIS_RETURN_NOT_OK(plan->Open(&ctx_));
    Tuple t;
    while (plan->Next(&t)) {
      MODULARIS_RETURN_NOT_OK(ctx_.cancel->Check());
      sink(t);
    }
    MODULARIS_RETURN_NOT_OK(plan->status());
    return plan->Close();
  }();
  if (!st.ok()) ctx_.cancel->Cancel(st);
  return st;
}

Result<RowVectorPtr> ExecScope::Collect(SubOperator* plan,
                                        const Schema& schema) {
  RowVectorPtr out = RowVector::Make(schema);
  MODULARIS_RETURN_NOT_OK(Drain(plan, [&](const Tuple& t) {
    for (size_t i = 0; i < t.size(); ++i) {
      if (t[i].is_collection()) {
        out->AppendAll(*t[i].collection());
      } else if (t[i].is_row()) {
        out->AppendRaw(t[i].row().data());
      }
    }
  }));
  return out;
}

void ExecScope::Finish() {
  total_.Stop();
  if (budget_.peak() > 0) {
    ctx_.stats->AddCounter("mem.peak_bytes",
                           static_cast<int64_t>(budget_.peak()));
  }
  if (budget_.denials() > 0) {
    ctx_.stats->AddCounter("mem.denials",
                           static_cast<int64_t>(budget_.denials()));
  }
}

void FleetExecutor::BeginFleet(ExecContext* ctx, int size) {
  ctx_ = ctx;
  status_ = Status::OK();
  scope_stats_ = std::vector<StatsRegistry>(size);
  scope_results_.assign(size, {});
  arenas_.assign(size, {});
  results_.clear();
  emit_pos_ = 0;
}

Status FleetExecutor::RunScope(ExecScope* scope, SubOpPtr plan) {
  const int i = scope->ctx()->rank;
  MODULARIS_RETURN_NOT_OK(scope->Drain(plan.get(), [&](const Tuple& t) {
    scope_results_[i].push_back(OwnTuple(t, &arenas_[i]));
  }));
  scope->Finish();
  return Status::OK();
}

Status FleetExecutor::FoldFleet(Status run_st,
                                const StatsRegistry& runtime_report) {
  // ExecContext::stats is nullable: drivers without stats still run.
  if (ctx_->stats != nullptr) ctx_->stats->Merge(runtime_report);
  MODULARIS_RETURN_NOT_OK(run_st);
  for (size_t i = 0; i < scope_results_.size(); ++i) {
    if (ctx_->stats != nullptr) ctx_->stats->MergeMax(scope_stats_[i]);
    for (Tuple& t : scope_results_[i]) results_.push_back(std::move(t));
  }
  scope_results_.clear();
  return Status::OK();
}

bool FleetExecutor::Next(Tuple* out) {
  if (emit_pos_ >= results_.size()) return false;
  *out = results_[emit_pos_++];
  return true;
}

}  // namespace modularis
