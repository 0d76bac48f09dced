// A small CPU tensor with reverse-mode automatic differentiation — the
// PyTorch substitute this reproduction trains and runs its DNNs on.
//
// Tensors are float32, dense, row-major, NCHW for images. A Tensor is a
// cheap value-type handle onto a shared TensorImpl; ops are free
// functions (nn/ops_*.hpp) that record backward closures onto the
// output's impl. Call backward() on a scalar to populate .grad() on
// every reachable tensor with requires_grad().
//
// Concurrency contract (relied on by src/serve):
//  - grad mode is thread-local: one thread's NoGradGuard never affects
//    another thread's graph recording.
//  - Ops never mutate their *input* impls. make_op_output
//    (nn/kernel_pool.hpp) only writes parents/backward_fn on the
//    freshly created output, and under NoGradGuard it returns before
//    even reading requires_grad, so concurrent inference forwards
//    over shared (frozen) weight tensors are data-race free: weights
//    are read-only, and grad/parents/backward_fn of shared impls are
//    never touched.
//  - backward() and ensure_grad() DO mutate reachable impls
//    (grad accumulation). Training, backward(), zero_grad(), and
//    set_requires_grad() require exclusive ownership of the tensors
//    involved — never run them concurrently with shared-weight
//    inference. Model owners freeze parameters once (requires_grad =
//    false, see serve::clone_frozen) before sharing across threads.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace laco::nn {

using Shape = std::vector<int>;

std::int64_t numel(const Shape& shape);
std::string shape_str(const Shape& shape);

class Tensor;

struct TensorImpl {
  Shape shape;
  std::vector<float> data;
  std::vector<float> grad;  ///< allocated lazily on first backward touch
  bool requires_grad = false;
  /// Inputs that contributed to this tensor (graph edges for toposort).
  std::vector<std::shared_ptr<TensorImpl>> parents;
  /// Accumulates this tensor's grad into its parents' grads.
  std::function<void(TensorImpl&)> backward_fn;

  void ensure_grad() {
    if (grad.size() != data.size()) grad.assign(data.size(), 0.0f);
  }
};

/// Whether ops currently record the autograd graph (thread-local).
bool grad_enabled();

/// RAII guard disabling graph recording (inference / label generation).
/// Thread-local: guards on one thread do not affect others, so a
/// service worker under NoGradGuard can share weights with a training
/// thread that still records graphs on its own tensors.
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

 private:
  bool previous_;
};

class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(std::shared_ptr<TensorImpl> impl) : impl_(std::move(impl)) {}

  /// Uninitialized-to-zero tensor of the given shape.
  static Tensor zeros(Shape shape, bool requires_grad = false);
  static Tensor full(Shape shape, float value, bool requires_grad = false);
  static Tensor from_data(Shape shape, std::vector<float> values, bool requires_grad = false);
  /// Scalar (shape {1}) convenience.
  static Tensor scalar(float value, bool requires_grad = false);

  bool defined() const { return impl_ != nullptr; }
  const Shape& shape() const { return impl_->shape; }
  int dim(int i) const;
  std::int64_t numel() const { return static_cast<std::int64_t>(impl_->data.size()); }

  std::vector<float>& data() { return impl_->data; }
  const std::vector<float>& data() const { return impl_->data; }
  std::vector<float>& grad() { return impl_->grad; }
  const std::vector<float>& grad() const { return impl_->grad; }

  float item() const;  ///< value of a single-element tensor

  bool requires_grad() const { return impl_->requires_grad; }
  Tensor& set_requires_grad(bool value) {
    impl_->requires_grad = value;
    return *this;
  }
  void zero_grad() { impl_->grad.assign(impl_->data.size(), 0.0f); }

  /// Reverse-mode backward from this (scalar) tensor.
  void backward();

  /// Detached copy sharing no graph (fresh impl, same data values).
  Tensor detach() const;
  /// Deep value copy (no graph, independent storage).
  Tensor clone() const;

  std::shared_ptr<TensorImpl>& impl() { return impl_; }
  const std::shared_ptr<TensorImpl>& impl() const { return impl_; }

 private:
  std::shared_ptr<TensorImpl> impl_;
};

/// Process-wide count of TensorImpl storage allocations (every zeros/
/// full/from_data/detach/op-output). Exported as the `nn.tensor.allocs`
/// counter via obs::MetricRegistry::global(); this accessor is the
/// cheap read used by benches and the plan tests to assert the
/// compiled-plan path performs ~0 allocations per forward.
std::uint64_t tensor_alloc_count();

}  // namespace laco::nn
