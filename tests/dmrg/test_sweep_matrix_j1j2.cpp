// The sweep oracle matrix (sweep_matrix.hpp) on the J1–J2 4×2 cylinder.
#include "sweep_matrix.hpp"

namespace {

Model matrix_model() { return make_model(ModelId::kJ1J2Cylinder); }

}  // namespace
