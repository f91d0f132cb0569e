#include "nn/matrix.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "nn/gemm.h"

namespace sato::nn {

Matrix Matrix::Gaussian(size_t rows, size_t cols, double stddev,
                        util::Rng* rng) {
  Matrix m(rows, cols);
  for (double& v : m.data_) v = rng->Normal(0.0, stddev);
  return m;
}

Matrix Matrix::KaimingHe(size_t fan_in, size_t fan_out, util::Rng* rng) {
  double stddev = std::sqrt(2.0 / static_cast<double>(fan_in));
  return Gaussian(fan_in, fan_out, stddev, rng);
}

Matrix Matrix::FromRow(const std::vector<double>& row) {
  Matrix m(1, row.size());
  std::copy(row.begin(), row.end(), m.data_.begin());
  return m;
}

Matrix Matrix::FromRows(const std::vector<std::vector<double>>& rows) {
  if (rows.empty()) return Matrix();
  Matrix m(rows.size(), rows[0].size());
  for (size_t r = 0; r < rows.size(); ++r) {
    if (rows[r].size() != m.cols_) {
      throw std::invalid_argument("Matrix::FromRows: ragged input");
    }
    std::copy(rows[r].begin(), rows[r].end(), m.Row(r));
  }
  return m;
}

std::vector<double> Matrix::RowVector(size_t r) const {
  return std::vector<double>(Row(r), Row(r) + cols_);
}

void Matrix::SetRow(size_t r, const std::vector<double>& v) {
  if (v.size() != cols_) throw std::invalid_argument("Matrix::SetRow: size mismatch");
  std::copy(v.begin(), v.end(), Row(r));
}

Matrix& Matrix::operator+=(const Matrix& other) {
  if (rows_ != other.rows_ || cols_ != other.cols_) {
    throw std::invalid_argument("Matrix::operator+=: shape mismatch");
  }
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& other) {
  if (rows_ != other.rows_ || cols_ != other.cols_) {
    throw std::invalid_argument("Matrix::operator-=: shape mismatch");
  }
  for (size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double s) {
  for (double& v : data_) v *= s;
  return *this;
}

void Matrix::HadamardInPlace(const Matrix& other) {
  if (rows_ != other.rows_ || cols_ != other.cols_) {
    throw std::invalid_argument("Matrix::HadamardInPlace: shape mismatch");
  }
  for (size_t i = 0; i < data_.size(); ++i) data_[i] *= other.data_[i];
}

void Matrix::AddRowVectorInPlace(const Matrix& row) {
  if (row.rows_ != 1 || row.cols_ != cols_) {
    throw std::invalid_argument("AddRowVectorInPlace: expected 1 x cols row");
  }
  for (size_t r = 0; r < rows_; ++r) {
    double* dst = Row(r);
    const double* src = row.data();
    for (size_t c = 0; c < cols_; ++c) dst[c] += src[c];
  }
}

Matrix Matrix::ColumnSums() const {
  Matrix out(1, cols_);
  for (size_t r = 0; r < rows_; ++r) {
    const double* src = Row(r);
    double* dst = out.data();
    for (size_t c = 0; c < cols_; ++c) dst[c] += src[c];
  }
  return out;
}

Matrix Matrix::ColumnMeans() const {
  Matrix out = ColumnSums();
  if (rows_ > 0) out *= 1.0 / static_cast<double>(rows_);
  return out;
}

double Matrix::FrobeniusNorm() const {
  double sum = 0.0;
  for (double v : data_) sum += v * v;
  return std::sqrt(sum);
}

std::string Matrix::DebugString() const {
  std::ostringstream os;
  os << "Matrix(" << rows_ << "x" << cols_ << ")[";
  for (size_t i = 0; i < std::min<size_t>(6, data_.size()); ++i) {
    if (i > 0) os << ", ";
    os << data_[i];
  }
  if (data_.size() > 6) os << ", ...";
  os << "]";
  return os.str();
}

// All four multiply routings funnel through the blocked kernel in
// nn/gemm.h (the immutable gemm::DefaultConfig() selects the
// micro-kernel), so Linear, attention, the encoder and the column-wise
// model pick up kernel improvements with no call-site changes.

Matrix MatMul(const Matrix& a, const Matrix& b) {
  Matrix c;
  gemm::Gemm(a, b, &c);
  return c;
}

void MatMulInto(const Matrix& a, const Matrix& b, Matrix* c) {
  if (c->rows() != a.rows() || c->cols() != b.cols()) {
    throw std::invalid_argument("MatMulInto: bad output shape");
  }
  gemm::Gemm(a, b, c);
}

Matrix MatMulTransposeB(const Matrix& a, const Matrix& b) {
  Matrix c;
  gemm::GemmTransposeB(a, b, &c);
  return c;
}

Matrix MatMulTransposeA(const Matrix& a, const Matrix& b) {
  Matrix c;
  gemm::GemmTransposeA(a, b, &c);
  return c;
}

Matrix ConcatColumns(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows()) {
    throw std::invalid_argument("ConcatColumns: row mismatch");
  }
  Matrix c(a.rows(), a.cols() + b.cols());
  for (size_t r = 0; r < a.rows(); ++r) {
    std::copy(a.Row(r), a.Row(r) + a.cols(), c.Row(r));
    std::copy(b.Row(r), b.Row(r) + b.cols(), c.Row(r) + a.cols());
  }
  return c;
}

}  // namespace sato::nn
