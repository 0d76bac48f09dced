#include "nn/tensor.hpp"

#include <sstream>
#include <stdexcept>

#include "nn/kernel_pool.hpp"
#include "nn/op_trace.hpp"
#include "obs/metrics.hpp"

namespace laco::nn {

namespace {
thread_local bool g_grad_enabled = true;

obs::Counter& tensor_alloc_counter() {
  // MetricRegistry::reset() zeroes but never destroys instruments, so
  // this reference stays valid for the process lifetime.
  static obs::Counter& counter = obs::MetricRegistry::global().counter("nn.tensor.allocs");
  return counter;
}
}  // namespace

std::uint64_t tensor_alloc_count() { return tensor_alloc_counter().value(); }

std::int64_t numel(const Shape& shape) {
  std::int64_t n = 1;
  for (const int d : shape) n *= d;
  return n;
}

std::string shape_str(const Shape& shape) {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < shape.size(); ++i) {
    if (i) os << ", ";
    os << shape[i];
  }
  os << ']';
  return os.str();
}

bool grad_enabled() { return g_grad_enabled; }

NoGradGuard::NoGradGuard() : previous_(g_grad_enabled) { g_grad_enabled = false; }
NoGradGuard::~NoGradGuard() { g_grad_enabled = previous_; }

Tensor Tensor::zeros(Shape shape, bool requires_grad) {
  return full(std::move(shape), 0.0f, requires_grad);
}

Tensor Tensor::full(Shape shape, float value, bool requires_grad) {
  auto impl = std::make_shared<TensorImpl>();
  const std::int64_t n = nn::numel(shape);
  if (n < 0) throw std::invalid_argument("Tensor: negative dimension in " + shape_str(shape));
  impl->shape = std::move(shape);
  impl->data.assign(static_cast<std::size_t>(n), value);
  impl->requires_grad = requires_grad;
  tensor_alloc_counter().add();
  return Tensor(std::move(impl));
}

Tensor Tensor::from_data(Shape shape, std::vector<float> values, bool requires_grad) {
  if (nn::numel(shape) != static_cast<std::int64_t>(values.size())) {
    throw std::invalid_argument("Tensor::from_data: size mismatch for " + shape_str(shape));
  }
  auto impl = std::make_shared<TensorImpl>();
  impl->shape = std::move(shape);
  impl->data = std::move(values);
  impl->requires_grad = requires_grad;
  tensor_alloc_counter().add();
  return Tensor(std::move(impl));
}

Tensor Tensor::scalar(float value, bool requires_grad) {
  return from_data({1}, {value}, requires_grad);
}

int Tensor::dim(int i) const {
  if (i < 0 || static_cast<std::size_t>(i) >= impl_->shape.size()) {
    throw std::out_of_range("Tensor::dim");
  }
  return impl_->shape[static_cast<std::size_t>(i)];
}

float Tensor::item() const {
  if (impl_->data.size() != 1) {
    throw std::logic_error("Tensor::item: tensor has " + std::to_string(impl_->data.size()) +
                           " elements");
  }
  return impl_->data[0];
}

Tensor Tensor::detach() const {
  auto impl = std::make_shared<TensorImpl>();
  impl->shape = impl_->shape;
  impl->data = impl_->data;  // value copy keeps graphs separable and safe
  impl->requires_grad = false;
  tensor_alloc_counter().add();
  return Tensor(std::move(impl));
}

Tensor Tensor::clone() const { return detach(); }

Tensor make_op_output(const OpStats& (*backward_stats)(), Shape shape,
                      std::vector<const Tensor*> inputs,
                      std::function<void(TensorImpl&)> backward_fn) {
  Tensor out = Tensor::zeros(std::move(shape));
  // Tracing sees *every* op output, including ops that never call
  // trace_op(); the plan compiler uses the mismatch to detect
  // unsupported ops and fall back to eager execution.
  if (OpTraceSink* sink = active_op_trace()) sink->note_output(out.impl());
  if (!grad_enabled()) return out;
  bool needs = false;
  for (const Tensor* in : inputs) {
    if (in->defined() && in->requires_grad()) {
      needs = true;
      break;
    }
  }
  if (!needs) return out;
  out.impl()->requires_grad = true;
  out.impl()->backward_fn = std::move(backward_fn);
  out.impl()->backward_stats = backward_stats;
  for (const Tensor* in : inputs) {
    if (in->defined()) out.impl()->parents.push_back(in->impl());
  }
  return out;
}

void Tensor::backward() {
  if (!impl_) throw std::logic_error("backward on undefined tensor");
  if (impl_->data.size() != 1) {
    throw std::logic_error("backward requires a scalar loss tensor");
  }
  // Topological order via iterative DFS over parent edges.
  std::vector<TensorImpl*> order;
  std::vector<std::pair<TensorImpl*, std::size_t>> stack;
  std::vector<TensorImpl*> visited;
  const auto is_visited = [&](TensorImpl* t) {
    for (TensorImpl* v : visited) {
      if (v == t) return true;
    }
    return false;
  };
  stack.emplace_back(impl_.get(), 0);
  visited.push_back(impl_.get());
  while (!stack.empty()) {
    auto& [node, next] = stack.back();
    if (next < node->parents.size()) {
      TensorImpl* parent = node->parents[next++].get();
      if (!is_visited(parent)) {
        visited.push_back(parent);
        stack.emplace_back(parent, 0);
      }
    } else {
      order.push_back(node);
      stack.pop_back();
    }
  }
  // `order` is now children-after-parents; walk it reversed.
  impl_->ensure_grad();
  impl_->grad[0] = 1.0f;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    TensorImpl* node = *it;
    if (node->backward_fn) {
      node->ensure_grad();
      OpTimer timer(node->backward_stats());
      node->backward_fn(*node);
    }
  }
}

}  // namespace laco::nn
