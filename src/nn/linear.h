#ifndef SATO_NN_LINEAR_H_
#define SATO_NN_LINEAR_H_

#include <string>
#include <vector>

#include "nn/layer.h"

namespace sato::nn {

/// Fully-connected layer: y = x W + b, W: [in, out], b: [1, out].
/// Apply is the const inference path: one MatMulInto into workspace
/// scratch plus the bias, safe to call concurrently on a frozen layer.
class Linear : public Layer {
 public:
  Linear(size_t in_features, size_t out_features, util::Rng* rng);

  Matrix Forward(const Matrix& input, bool train) override;
  const Matrix& Apply(const Matrix& input, Workspace* ws) const override;
  Matrix Backward(const Matrix& grad_output) override;
  std::vector<Parameter*> Parameters() override { return {&weight_, &bias_}; }
  std::string name() const override { return "Linear"; }

  size_t in_features() const { return weight_.value.rows(); }
  size_t out_features() const { return weight_.value.cols(); }

  Parameter& weight() { return weight_; }
  Parameter& bias() { return bias_; }

 private:
  Parameter weight_;
  Parameter bias_;
  Matrix input_cache_;
};

}  // namespace sato::nn

#endif  // SATO_NN_LINEAR_H_
