// The sweep oracle matrix (sweep_matrix.hpp) on the Heisenberg chain.
#include "sweep_matrix.hpp"

namespace {

Model matrix_model() { return make_model(ModelId::kHeisenbergChain); }

}  // namespace
