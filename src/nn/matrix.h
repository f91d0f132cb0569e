#ifndef SATO_NN_MATRIX_H_
#define SATO_NN_MATRIX_H_

#include <algorithm>  // std::fill used by Fill() below
#include <cstddef>
#include <string>
#include <vector>

#include "util/rng.h"

namespace sato::nn {

/// Dense row-major matrix of doubles. This is the only tensor type the
/// library needs: batches are matrices of shape [batch, features] and all
/// layers map matrices to matrices.
///
/// Shape conventions used across src/nn, src/encoder and src/core:
///  * storage is row-major and contiguous: element (r, c) lives at
///    data()[r * cols() + c], and Row(r) is a contiguous span of cols()
///    doubles;
///  * rows index the batch (one column-of-a-table per row for the
///    column-wise model, one token per row inside the encoder); columns
///    index features;
///  * weights are stored [in_features, out_features], so a forward pass is
///    always `activations = MatMul(input, weight)` with no transpose;
///  * a "row vector" is a [1, n] Matrix (biases, ColumnSums results).
///
/// Thread-safety follows the usual const contract: concurrent reads of one
/// Matrix are safe, any mutation needs external ordering. The re-entrant
/// inference path never mutates shared matrices -- every intermediate is
/// drawn from a per-thread nn::Workspace.
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  Matrix(size_t rows, size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  static Matrix Zeros(size_t rows, size_t cols) { return Matrix(rows, cols); }

  /// Gaussian init with the given standard deviation.
  static Matrix Gaussian(size_t rows, size_t cols, double stddev,
                         util::Rng* rng);

  /// Kaiming-He init for a [fan_in, fan_out] weight (suits ReLU networks).
  static Matrix KaimingHe(size_t fan_in, size_t fan_out, util::Rng* rng);

  /// Builds a 1 x n row matrix from a vector.
  static Matrix FromRow(const std::vector<double>& row);

  /// Builds a matrix from row vectors (all must share a length).
  static Matrix FromRows(const std::vector<std::vector<double>>& rows);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  double& operator()(size_t r, size_t c) { return data_[r * cols_ + c]; }
  double operator()(size_t r, size_t c) const { return data_[r * cols_ + c]; }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  double* Row(size_t r) { return data_.data() + r * cols_; }
  const double* Row(size_t r) const { return data_.data() + r * cols_; }

  /// Copies row r into a vector.
  std::vector<double> RowVector(size_t r) const;

  /// Sets row r from a vector of length cols().
  void SetRow(size_t r, const std::vector<double>& v);

  void Fill(double v) { std::fill(data_.begin(), data_.end(), v); }

  /// Reshapes to [rows, cols] and zero-fills. Existing heap storage is
  /// reused whenever capacity allows -- this is what lets Workspace hand
  /// out scratch matrices without steady-state allocation.
  void Resize(size_t rows, size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.assign(rows * cols, 0.0);
  }

  /// Resize that skips the zero-fill: surviving elements keep stale
  /// values. Only for outputs the caller fully overwrites (MatMulInto).
  void ResizeUninit(size_t rows, size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.resize(rows * cols);
  }

  // -- element-wise in-place ops ------------------------------------------
  Matrix& operator+=(const Matrix& other);
  Matrix& operator-=(const Matrix& other);
  Matrix& operator*=(double s);

  /// Hadamard (element-wise) product in place.
  void HadamardInPlace(const Matrix& other);

  /// Adds a 1 x cols row vector to every row.
  void AddRowVectorInPlace(const Matrix& row);

  /// Sum over rows -> 1 x cols.
  Matrix ColumnSums() const;

  /// Mean over rows -> 1 x cols.
  Matrix ColumnMeans() const;

  /// Frobenius norm.
  double FrobeniusNorm() const;

  /// Debug string with shape and a few leading values.
  std::string DebugString() const;

  friend bool operator==(const Matrix& a, const Matrix& b) {
    return a.rows_ == b.rows_ && a.cols_ == b.cols_ && a.data_ == b.data_;
  }

 private:
  size_t rows_, cols_;
  std::vector<double> data_;
};

// -- matrix multiplication --------------------------------------------------
// All four routings run on the cache-blocked, register-tiled kernel in
// nn/gemm.h under the immutable gemm::DefaultConfig() (see gemm.h for the
// tuning knobs). They are re-entrant, allocate no steady-state heap
// (packing scratch is thread_local and recycled), and throw
// std::invalid_argument on inner-dimension mismatch.

/// C = A * B. Shapes: [m,k] x [k,n] -> [m,n].
Matrix MatMul(const Matrix& a, const Matrix& b);

/// C = A * B written into a caller-owned matrix pre-shaped to [m,n], so
/// hot paths can reuse pooled storage (Workspace::ScratchUninit). The
/// output is completely overwritten and bit-identical to MatMul.
/// Aliasing rule: `c` must not alias `a` or `b` -- the kernel interleaves
/// reads of both inputs with writes to `c`, so an aliased call reads
/// partially overwritten inputs. (Workspace scratch never aliases layer
/// parameters, which is what the inference path relies on.)
void MatMulInto(const Matrix& a, const Matrix& b, Matrix* c);

/// C = A * B^T. Shapes: [m,k] x [n,k] -> [m,n]. B is read through a
/// transposed view; no transposed copy of B is materialised beyond the
/// kernel's packed panels.
Matrix MatMulTransposeB(const Matrix& a, const Matrix& b);

/// C = A^T * B. Shapes: [k,m] x [k,n] -> [m,n]. Same view mechanics as
/// MatMulTransposeB.
Matrix MatMulTransposeA(const Matrix& a, const Matrix& b);

/// Horizontal concatenation [A | B] of matrices with equal row counts.
Matrix ConcatColumns(const Matrix& a, const Matrix& b);

}  // namespace sato::nn

#endif  // SATO_NN_MATRIX_H_
