#include "nn/serialize.h"

#include <algorithm>
#include <cstdint>
#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>

#include "util/binary_io.h"

namespace sato::nn {

namespace {
constexpr uint64_t kMagic = 0x5341544f4d4f444cull;  // "SATOMODL"

void WriteU64(std::ostream* out, uint64_t v) {
  out->write(reinterpret_cast<const char*>(&v), sizeof(v));
}

uint64_t ReadU64(std::istream* in) {
  uint64_t v = 0;
  in->read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!*in) throw std::runtime_error("nn::LoadParameters: truncated stream");
  return v;
}
}  // namespace

void SaveMatrix(const Matrix& m, std::ostream* out) {
  WriteU64(out, m.rows());
  WriteU64(out, m.cols());
  out->write(reinterpret_cast<const char*>(m.data()),
             static_cast<std::streamsize>(m.size() * sizeof(double)));
}

Matrix LoadMatrix(std::istream* in) {
  const uint64_t rows = ReadU64(in);
  const uint64_t cols = ReadU64(in);
  // The shape is untrusted: a product that wraps would describe a matrix
  // with no storage, and the values are read in bounded chunks before the
  // matrix is allocated, so a shape the stream cannot fill costs only the
  // bytes it delivers.
  if (cols != 0 && rows > std::numeric_limits<size_t>::max() / cols) {
    throw std::overflow_error("nn::LoadMatrix: rows x cols overflows size_t");
  }
  std::vector<double> values;
  util::ReadArray(in, rows * cols, &values, "nn::LoadMatrix");
  Matrix m(rows, cols);
  std::copy(values.begin(), values.end(), m.data());
  return m;
}

void SaveParameters(const std::vector<Parameter*>& params, std::ostream* out) {
  WriteU64(out, kMagic);
  WriteU64(out, params.size());
  for (const Parameter* p : params) SaveMatrix(p->value, out);
}

void LoadParameters(const std::vector<Parameter*>& params, std::istream* in) {
  if (ReadU64(in) != kMagic) {
    throw std::runtime_error("nn::LoadParameters: bad magic");
  }
  if (ReadU64(in) != params.size()) {
    throw std::runtime_error("nn::LoadParameters: parameter count mismatch");
  }
  for (Parameter* p : params) {
    Matrix m = LoadMatrix(in);
    if (m.rows() != p->value.rows() || m.cols() != p->value.cols()) {
      throw std::runtime_error("nn::LoadParameters: shape mismatch for " + p->name);
    }
    p->value = std::move(m);
  }
}

}  // namespace sato::nn
