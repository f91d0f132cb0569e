#ifndef SATO_NN_SERIALIZE_H_
#define SATO_NN_SERIALIZE_H_

#include <iosfwd>
#include <vector>

#include "nn/layer.h"

namespace sato::nn {

/// Binary serialization of a parameter list (shape-checked on load).
/// Layout: magic, count, then per parameter: rows, cols, row-major doubles.
/// Used to persist trained Sato models ("we are publicly releasing our
/// trained model", §8).
void SaveParameters(const std::vector<Parameter*>& params, std::ostream* out);

/// Loads values into the given parameters; throws on shape or magic
/// mismatch (the architecture must be constructed identically first).
void LoadParameters(const std::vector<Parameter*>& params, std::istream* in);

/// Saves a raw matrix.
void SaveMatrix(const Matrix& m, std::ostream* out);

/// Loads a raw matrix. Throws std::runtime_error on a truncated stream or
/// a saved shape whose element count overflows size_t.
Matrix LoadMatrix(std::istream* in);

}  // namespace sato::nn

#endif  // SATO_NN_SERIALIZE_H_
