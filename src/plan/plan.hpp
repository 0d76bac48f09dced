// Compiled inference plans for frozen models (docs/PLAN.md).
//
// A Plan is the result of tracing a tensor function once on example
// inputs: a topologically ordered list of op kernels with static
// argument bindings, plus a liveness-packed arena layout for every
// intermediate. Executing a plan replays the kernels against a
// caller-owned Workspace arena — no autograd bookkeeping, no dynamic
// dispatch through the Tensor graph, and (after the first call sized
// the workspace) no allocations. Kernels are the same code the eager
// ops run (nn/op_trace.hpp), so plan execution is bitwise-equal to
// the eager forward.
//
// Threading: a Plan is immutable after compile() and may be executed
// concurrently from many threads, each with its own Workspace. The
// traced model's weights are captured as constants by shared_ptr, so
// a Plan keeps them alive; the usual frozen-weights contract
// (nn/tensor.hpp) applies.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "nn/op_trace.hpp"
#include "nn/tensor.hpp"

namespace laco::plan {

/// Where a node operand or result lives at execution time.
enum class BindKind : std::uint8_t {
  kUndefined,  ///< optional operand that was an undefined Tensor (nullptr)
  kInput,      ///< caller-provided input tensor `index`
  kConstant,   ///< frozen weight/buffer captured at compile time
  kArena,      ///< intermediate at `offset` floats into the workspace arena
  kOutput,     ///< the caller-provided output buffer
};

struct Binding {
  BindKind kind = BindKind::kUndefined;
  std::uint32_t index = 0;  ///< input index (kInput) or constant index (kConstant)
  std::size_t offset = 0;   ///< arena offset in floats (kArena)
  /// Element count of the bound buffer, recorded at compile time from
  /// the traced tensor. Not needed to execute (kernels know their
  /// shapes); the plan verifier checks it against what the binding
  /// points at (src/plan/verifier.hpp).
  std::size_t numel = 0;
};

struct PlanNode {
  const char* op = "";  ///< op name; string literal owned by the op's TU
  nn::OpKernel kernel;
  std::vector<Binding> inputs;
  Binding output;
};

/// Debug/test view of one arena-resident intermediate's lifetime.
struct ArenaSpan {
  std::size_t offset = 0;  ///< floats
  std::size_t size = 0;    ///< floats (unpadded)
  int def = 0;             ///< node index that writes this buffer
  int last_use = 0;        ///< last node index that reads it (== def if unread)
};

class Plan;

/// Per-thread scratch for plan execution: the arena plus pointer
/// tables. Not thread-safe — each executing thread owns one and may
/// reuse it across plans; prepare() grows storage outside the hot
/// path so Plan::execute never allocates.
class Workspace {
 public:
  /// Ensures capacity for `plan`. Idempotent and cheap when already
  /// large enough.
  void prepare(const Plan& plan);

  std::size_t arena_floats() const { return arena_.size(); }

 private:
  friend class Plan;
  std::vector<float> arena_;
  std::vector<const float*> operand_scratch_;
  std::vector<const float*> input_scratch_;
};

class Plan {
 public:
  std::size_t num_inputs() const { return input_shapes_.size(); }
  const std::vector<nn::Shape>& input_shapes() const { return input_shapes_; }
  const nn::Shape& output_shape() const { return output_shape_; }
  std::int64_t output_numel() const { return output_numel_; }
  std::size_t num_nodes() const { return nodes_.size(); }
  /// Arena size in floats (sum of live intermediate peaks, not of all
  /// intermediates — the liveness pass reuses dead buffers).
  std::size_t arena_floats() const { return arena_floats_; }
  /// Test/debug introspection of the arena layout.
  const std::vector<ArenaSpan>& arena_spans() const { return spans_; }

  /// Hot path (src/plan/executor.cpp — allocation-free, analyzer-gated):
  /// replays the node list. `inputs` must hold num_inputs() pointers
  /// whose tensors match input_shapes(); `output` must have room for
  /// output_numel() floats; `ws` must be prepare()d for this plan.
  void execute(const float* const* inputs, float* output, Workspace& ws) const;

  /// Convenience wrapper: validates shapes, prepares `ws`, allocates
  /// the output tensor (the plan path's only per-forward allocation)
  /// and runs execute(). Increments the `plan.executions` counter.
  nn::Tensor run(const std::vector<nn::Tensor>& inputs, Workspace& ws) const;

 private:
  friend class Workspace;
  friend struct PlanBuilder;   // compiler.cpp
  friend struct PlanVerifier;  // verifier.cpp (read-only checks)
  friend struct PlanSurgeon;   // verifier.hpp (test-only corruption)

  std::vector<PlanNode> nodes_;
  /// Keep-alive anchors for captured weights/buffers, parallel to
  /// constant_ptrs_ (which execute() indexes).
  std::vector<std::shared_ptr<const nn::TensorImpl>> constants_;
  std::vector<const float*> constant_ptrs_;
  std::vector<nn::Shape> input_shapes_;
  nn::Shape output_shape_;
  std::int64_t output_numel_ = 0;
  std::size_t arena_floats_ = 0;
  std::size_t max_operands_ = 0;
  /// When the traced fn returned an input or constant verbatim, the
  /// node list may be empty and the result is copied from here.
  bool passthrough_ = false;
  Binding passthrough_src_;
  std::vector<ArenaSpan> spans_;
};

/// A tensor function of explicit inputs, e.g. a frozen Module forward.
using TracedFn = std::function<nn::Tensor(const std::vector<nn::Tensor>&)>;

struct CompileResult {
  std::shared_ptr<const Plan> plan;  ///< null when compilation fell back
  std::string error;                 ///< reason when plan == nullptr
  nn::Tensor traced_output;          ///< eager output of the tracing run
};

/// Traces `fn` once on `example_inputs` (under nn::NoGradGuard) and
/// compiles the recorded ops into a Plan. Returns a null plan with a
/// diagnostic when the trace contains an op without replay support
/// (callers fall back to eager execution), or when `fn` throws a
/// std::exception.
CompileResult compile(const TracedFn& fn, const std::vector<nn::Tensor>& example_inputs);

}  // namespace laco::plan
