// The sweep oracle matrix (sweep_matrix.hpp) on the triangular Hubbard 3×2 cylinder.
#include "sweep_matrix.hpp"

namespace {

Model matrix_model() { return make_model(ModelId::kTriangularHubbard); }

}  // namespace
