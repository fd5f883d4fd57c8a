#ifndef MODULARIS_SUBOPERATORS_BASIC_OPS_H_
#define MODULARIS_SUBOPERATORS_BASIC_OPS_H_

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/expr.h"
#include "core/expr_bc.h"
#include "core/parallel.h"
#include "core/sub_operator.h"

/// \file basic_ops.h
/// Orchestration sub-operators (ParameterLookup, NestedMap — paper §3.4)
/// and the record-level data-processing operators (Filter, Map,
/// ParametrizedMap, Projection, Zip, CartesianProduct).

namespace modularis {

/// ParameterLookup encapsulates plan inputs in the operator interface
/// (paper §3.4). It yields the current parameter tuple — pushed by the
/// executor for plan-level inputs or by the enclosing NestedMap for nested
/// plans — exactly once per Open().
class ParameterLookup : public SubOperator {
 public:
  ParameterLookup() : SubOperator("ParameterLookup") {}

  Status Open(ExecContext* ctx) override {
    done_ = false;
    return SubOperator::Open(ctx);
  }

  bool Next(Tuple* out) override {
    if (done_) return false;
    const Tuple* params = ctx_->CurrentParams();
    if (params == nullptr) {
      return Fail(Status::Internal(
          "ParameterLookup: no parameter frame is bound"));
    }
    *out = *params;
    done_ = true;
    return true;
  }

  /// Stateless between Open cycles; each worker's clone reads the frame
  /// its own context pushed.
  SubOpPtr CloneForWorker(WorkerCloneContext*) const override {
    return std::make_unique<ParameterLookup>();
  }

 private:
  bool done_ = false;
};

/// NestedMap executes a nested plan independently for each input tuple
/// (paper §3.4). The input tuple becomes the parameter frame of the nested
/// plan's ParameterLookup operators; all tuples the nested plan produces
/// are forwarded downstream. This is design principle (3): high-level
/// control flow expressed through the operator interface itself.
class NestedMap : public SubOperator {
 public:
  NestedMap(SubOpPtr input, SubOpPtr nested_plan)
      : SubOperator("NestedMap"), nested_(std::move(nested_plan)) {
    AddChild(std::move(input));
  }

  Status Open(ExecContext* ctx) override;
  bool Next(Tuple* out) override;
  /// Streams whatever the nested plan streams.
  bool ProducesRecordStream() const override {
    return nested_->ProducesRecordStream();
  }
  /// Batch path: forwards the nested plan's batches (the nested plan
  /// re-opens per input tuple exactly as in Next()).
  bool NextBatch(RowBatch* out) override;
  /// Forwards the nested plan's selection batches untouched.
  bool NextBatchSelective(RowBatch* out) override;
  Status Close() override;
  SubOpPtr CloneForWorker(WorkerCloneContext* cc) const override;

  SubOperator* nested_plan() const { return nested_.get(); }

 private:
  /// Closes the finished nested execution and opens the next one; false
  /// at end of input or on error.
  bool AdvanceNested();

  // -- Parallel mode (docs/DESIGN-parallel.md) -----------------------------
  // When the rank has a thread budget and the nested plan clones, input
  // tuples are dispatched dynamically to worker-owned clones in bounded
  // groups; outputs are emitted strictly in input order, so N-thread runs
  // are byte-identical to the serial per-tuple loop. Workers run with
  // num_threads pinned to 1 (no nested pools).

  struct ParTask {
    Tuple input;
    std::vector<Tuple> outputs;
    std::vector<RowVectorPtr> arena;
  };

  /// Pulls the next bounded group of input tuples and runs them on the
  /// worker clones; false at end of input or on error.
  bool FillParGroup();

  SubOpPtr nested_;
  Tuple current_input_;
  std::vector<RowVectorPtr> arena_;
  bool nested_open_ = false;

  bool par_active_ = false;
  std::vector<SubOpPtr> par_plans_;           // one nested clone per worker
  std::unique_ptr<WorkerSet> par_workers_;
  std::vector<ParTask> par_group_;
  size_t par_task_ = 0;  // emission cursor: task within group ...
  size_t par_out_ = 0;   // ... and output tuple within task
  bool par_input_done_ = false;
};

/// Projection retains a subset of the *tuple items* of its input, in the
/// given order (used to dissect parameter tuples in nested plans).
class Projection : public SubOperator {
 public:
  Projection(SubOpPtr child, std::vector<int> indices)
      : SubOperator("Projection"), indices_(std::move(indices)) {
    AddChild(std::move(child));
  }

  bool Next(Tuple* out) override {
    Tuple t;
    if (!child(0)->Next(&t)) return ChildEnd(child(0));
    out->clear();
    for (int i : indices_) out->push_back(t[i]);
    return true;
  }

  /// Native batch path for the single-item form: the selected item of
  /// each input tuple is batched directly (collections forwarded
  /// zero-copy, rows packed), skipping the per-tuple Projection::Next.
  bool NextBatch(RowBatch* out) override;

  SubOpPtr CloneForWorker(WorkerCloneContext* cc) const override {
    SubOpPtr child_clone = child(0)->CloneForWorker(cc);
    if (child_clone == nullptr) return nullptr;
    return std::make_unique<Projection>(std::move(child_clone), indices_);
  }

 private:
  std::vector<int> indices_;
};

/// Filter passes through record tuples whose row item satisfies the
/// predicate expression. A predicate evaluating to a non-numeric value is
/// a hard error on every path (row, batch, selective).
class Filter : public SubOperator {
 public:
  Filter(SubOpPtr child, ExprPtr predicate, int row_item = 0)
      : SubOperator("Filter"),
        predicate_(std::move(predicate)),
        row_item_(row_item) {
    AddChild(std::move(child));
  }

  bool Next(Tuple* out) override {
    Tuple t;
    while (child(0)->Next(&t)) {
      bool keep = false;
      Status st = predicate_->EvalBoolChecked(t[row_item_].row(), &keep);
      if (!st.ok()) return Fail(std::move(st));
      if (keep) {
        *out = std::move(t);
        return true;
      }
    }
    return ChildEnd(child(0));
  }

  /// Only the common row_item == 0 form is a plain record stream.
  bool ProducesRecordStream() const override { return row_item_ == 0; }

  /// Dense batch path: selective pull + compaction of the surviving rows
  /// (contiguous runs copied in one memcpy); an all-pass batch is
  /// forwarded zero-copy.
  bool NextBatch(RowBatch* out) override;

  /// Selection path: the predicate program narrows a selection vector over
  /// the input batch, which is forwarded in place — surviving rows are
  /// never copied. Chains through upstream selections.
  bool NextBatchSelective(RowBatch* out) override;

  const ExprPtr& predicate() const { return predicate_; }

  /// Expression trees are immutable and shared between worker clones.
  SubOpPtr CloneForWorker(WorkerCloneContext* cc) const override {
    SubOpPtr child_clone = child(0)->CloneForWorker(cc);
    if (child_clone == nullptr) return nullptr;
    return std::make_unique<Filter>(std::move(child_clone), predicate_,
                                    row_item_);
  }

 private:
  ExprPtr predicate_;
  int row_item_;
  RowBatch in_batch_;
  RowVectorPtr out_rows_;
  SelVector sel_;
  // Predicate program, compiled lazily against the first batch's schema.
  // Programs are immutable after compilation; the BcState (register
  // files) is this operator's alone, so worker clones — which construct
  // their own Filter — never share mutable state.
  std::unique_ptr<BcProgram> bc_prog_;
  BcState bc_state_;
};

/// One output column of a Map: either a passthrough of an input column or
/// a computed expression.
struct MapOutput {
  /// Passthrough when >= 0 (expr ignored); computed when -1.
  int passthrough_col = -1;
  ExprPtr expr;

  static MapOutput Pass(int col) { return MapOutput{col, nullptr}; }
  static MapOutput Compute(ExprPtr e) { return MapOutput{-1, std::move(e)}; }
};

/// Map transforms each input record into a new record of `out_schema`
/// (projection pushdown + computed columns). This is the sub-operator the
/// UDF frontend compiles user functions into.
class MapOp : public SubOperator {
 public:
  MapOp(SubOpPtr child, Schema out_schema, std::vector<MapOutput> outputs,
        int row_item = 0)
      : SubOperator("Map"),
        out_schema_(std::move(out_schema)),
        outputs_(std::move(outputs)),
        row_item_(row_item) {
    AddChild(std::move(child));
  }

  Status Open(ExecContext* ctx) override {
    scratch_ = RowVector::Make(out_schema_);
    scratch_->AppendRow();
    return SubOperator::Open(ctx);
  }

  bool Next(Tuple* out) override;
  /// Only the common row_item == 0 form is a plain record stream.
  bool ProducesRecordStream() const override { return row_item_ == 0; }
  /// Batch path: pulls selectively (consuming upstream Filter selection
  /// vectors without an intermediate compaction copy) and projects whole
  /// batches column-wise through compiled bytecode value programs.
  bool NextBatch(RowBatch* out) override;

  SubOpPtr CloneForWorker(WorkerCloneContext* cc) const override {
    SubOpPtr child_clone = child(0)->CloneForWorker(cc);
    if (child_clone == nullptr) return nullptr;
    return std::make_unique<MapOp>(std::move(child_clone), out_schema_,
                                   outputs_, row_item_);
  }

 private:
  Status WriteOutput(const RowRef& in, RowWriter* w);
  /// Column-wise projection of the (possibly selection-carrying) input
  /// batch into out_rows_.
  Status TransformBatch(const RowBatch& in);
  /// Stores one batch-evaluated column into the packed output rows.
  Status StoreColumn(const BatchColumn& v, int col, uint32_t ooff,
                     uint8_t* obase, uint32_t ostride, size_t n);

  Schema out_schema_;
  std::vector<MapOutput> outputs_;
  int row_item_;
  RowVectorPtr scratch_;
  RowBatch in_batch_;
  RowVectorPtr out_rows_;
  SelVector identity_sel_;
  // One value program per computed output column, compiled lazily
  // against the first batch's schema (invalid entries for passthrough
  // columns).
  std::vector<BcProgram> bc_progs_;
  bool bc_compiled_ = false;
  BcState bc_state_;
  BatchColumn value_col_;
};

/// ParametrizedMap transforms each record of its data upstream with a
/// callable that additionally receives a parameter tuple read from its
/// first upstream at Open() time (paper §4.1.2: recovering the key bits
/// dropped by the compressed network exchange).
class ParametrizedMap : public SubOperator {
 public:
  using Fn = std::function<void(const Tuple& param, const RowRef& in,
                                RowWriter* out)>;
  /// Bulk variant applied to whole collections (installed by the fusion
  /// pass — the analog of JIT-inlining the UDF into the loop).
  using BulkFn = std::function<RowVectorPtr(const Tuple& param,
                                            const RowVector& in)>;

  /// `param` upstream must yield exactly one tuple; `data` yields records.
  ParametrizedMap(SubOpPtr param, SubOpPtr data, Schema out_schema, Fn fn)
      : SubOperator("ParametrizedMap"),
        out_schema_(std::move(out_schema)),
        fn_(std::move(fn)) {
    AddChild(std::move(param));
    AddChild(std::move(data));
  }

  /// Fused form: `data` yields collections; `bulk_fn` transforms each in
  /// one tight loop and the result is forwarded as a collection tuple.
  ParametrizedMap(SubOpPtr param, SubOpPtr data, Schema out_schema,
                  BulkFn bulk_fn)
      : SubOperator("ParametrizedMap"),
        out_schema_(std::move(out_schema)),
        bulk_fn_(std::move(bulk_fn)) {
    AddChild(std::move(param));
    AddChild(std::move(data));
  }

  Status Open(ExecContext* ctx) override;
  bool Next(Tuple* out) override;
  /// Record form yields records; the bulk form yields collections.
  bool ProducesRecordStream() const override { return fn_ != nullptr; }
  /// Batch path (record form only): applies `fn` over whole input
  /// batches. The bulk form falls back to the default adapter, which
  /// forwards its collection outputs zero-copy.
  bool NextBatch(RowBatch* out) override;

  /// Declares the callable(s) safe to invoke concurrently from several
  /// worker clones (stateless lambdas). Plan builders opt in explicitly;
  /// without it the operator refuses to clone and its chain falls back to
  /// serial execution.
  ParametrizedMap* MarkCloneSafe() {
    clone_safe_ = true;
    return this;
  }

  SubOpPtr CloneForWorker(WorkerCloneContext* cc) const override;

 private:
  Schema out_schema_;
  Fn fn_;
  BulkFn bulk_fn_;
  bool clone_safe_ = false;
  Tuple param_;
  std::vector<RowVectorPtr> param_arena_;
  RowVectorPtr scratch_;
  // Bulk path (fused plans feed whole collections).
  RowVectorPtr bulk_;
  size_t bulk_pos_ = 0;
  RowBatch in_batch_;
  RowVectorPtr out_rows_;
};

/// Zip combines the i-th tuples of its two upstreams into one tuple
/// (item-wise concatenation). Streams must have equal length.
class Zip : public SubOperator {
 public:
  Zip(SubOpPtr left, SubOpPtr right) : SubOperator("Zip") {
    AddChild(std::move(left));
    AddChild(std::move(right));
  }

  bool Next(Tuple* out) override {
    Tuple a, b;
    bool has_a = child(0)->Next(&a);
    bool has_b = child(1)->Next(&b);
    if (!has_a && !has_b) {
      if (!child(0)->status().ok()) return Fail(child(0)->status());
      if (!child(1)->status().ok()) return Fail(child(1)->status());
      return false;
    }
    if (has_a != has_b) {
      return Fail(Status::InvalidArgument(
          "Zip: upstreams produced different numbers of tuples"));
    }
    *out = std::move(a);
    out->Append(b);
    return true;
  }

  SubOpPtr CloneForWorker(WorkerCloneContext* cc) const override {
    SubOpPtr left = child(0)->CloneForWorker(cc);
    SubOpPtr right = left == nullptr ? nullptr : child(1)->CloneForWorker(cc);
    if (right == nullptr) return nullptr;
    return std::make_unique<Zip>(std::move(left), std::move(right));
  }
};

/// CartesianProduct emits the concatenation of every (left, right) tuple
/// pair. The left side is buffered at Open(); in the paper's plans it
/// carries a single tuple (e.g. the network partition ID) that is attached
/// to every right-side tuple (§4.1.2).
class CartesianProduct : public SubOperator {
 public:
  CartesianProduct(SubOpPtr left, SubOpPtr right)
      : SubOperator("CartesianProduct") {
    AddChild(std::move(left));
    AddChild(std::move(right));
  }

  Status Open(ExecContext* ctx) override;
  bool Next(Tuple* out) override;

  SubOpPtr CloneForWorker(WorkerCloneContext* cc) const override {
    SubOpPtr left = child(0)->CloneForWorker(cc);
    SubOpPtr right = left == nullptr ? nullptr : child(1)->CloneForWorker(cc);
    if (right == nullptr) return nullptr;
    return std::make_unique<CartesianProduct>(std::move(left),
                                              std::move(right));
  }

 private:
  std::vector<Tuple> left_;
  std::vector<RowVectorPtr> arena_;
  Tuple right_current_;
  bool right_valid_ = false;
  size_t left_pos_ = 0;
};

}  // namespace modularis

#endif  // MODULARIS_SUBOPERATORS_BASIC_OPS_H_
