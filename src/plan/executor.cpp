// Plan executor — THE hot path of the serving inner loop. This
// translation unit must stay allocation-free: no Tensor factories, no
// make_shared/make_unique, no container growth
// (push_back/emplace_back/resize/reserve). laco-analyze enforces this
// with the `plan-hot-alloc` rule; preallocation belongs in
// Workspace::prepare (src/plan/plan.cpp).
#include <cstring>

#include "plan/plan.hpp"
#include "util/check.hpp"

namespace laco::plan {

namespace {

inline const float* resolve_read(const Binding& b, const float* const* inputs,
                                 const float* const* constants, const float* arena,
                                 const float* output) {
  switch (b.kind) {
    case BindKind::kUndefined:
      return nullptr;
    case BindKind::kInput:
      return inputs[b.index];
    case BindKind::kConstant:
      return constants[b.index];
    case BindKind::kArena:
      return arena + b.offset;
    case BindKind::kOutput:
      return output;
  }
  return nullptr;
}

}  // namespace

void Plan::execute(const float* const* inputs, float* output, Workspace& ws) const {
  LACO_CHECK(ws.arena_.size() >= arena_floats_);
  LACO_CHECK(ws.operand_scratch_.size() >= max_operands_);
  float* arena = ws.arena_.data();
  const float** operands = ws.operand_scratch_.data();
  const float* const* constants = constant_ptrs_.data();

  for (const PlanNode& node : nodes_) {
    const std::size_t n_in = node.inputs.size();
    for (std::size_t i = 0; i < n_in; ++i) {
      operands[i] = resolve_read(node.inputs[i], inputs, constants, arena, output);
    }
    float* dst = node.output.kind == BindKind::kOutput ? output : arena + node.output.offset;
    node.kernel(operands, dst);
  }

  if (passthrough_) {
    const float* src = resolve_read(passthrough_src_, inputs, constants, arena, output);
    LACO_CHECK(src != nullptr);
    std::memcpy(output, src, static_cast<std::size_t>(output_numel_) * sizeof(float));
  }
}

}  // namespace laco::plan
