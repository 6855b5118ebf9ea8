// Seeded violations for the one-thread-runtime rule: OpenMP threads that the
// pool, and so TT_THREADS, cannot see or cap. Never compiled.
#include <omp.h>  // EXPECT(one-thread-runtime)
#include <vector>

namespace fixture {

double sum(const std::vector<double>& v) {
  double s = 0.0;
  const int n = static_cast<int>(v.size());
#pragma omp parallel for reduction(+ : s)  // EXPECT(one-thread-runtime)
  for (int i = 0; i < n; ++i) s += v[static_cast<std::size_t>(i)];
  omp_set_num_threads(2);  // EXPECT(one-thread-runtime)
  // EXPECT-NEXT(one-thread-runtime)
  const int t = omp_get_max_threads();
  # pragma   omp barrier  // EXPECT(one-thread-runtime)
  // A mention in a comment does not count: #pragma omp parallel, omp_get_wtime()
  const double bomp_scale = 1.0;  // no finding: not an omp_ call
  return s * bomp_scale + t;
}

}  // namespace fixture
