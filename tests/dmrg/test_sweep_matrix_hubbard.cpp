// The sweep oracle matrix (sweep_matrix.hpp) on the Hubbard chain.
#include "sweep_matrix.hpp"

namespace {

Model matrix_model() { return make_model(ModelId::kHubbardChain); }

}  // namespace
