// Clean fixture: a function annotated hot whose loop stays allocation-free.

#include <cstddef>
#include <vector>

namespace fixture {

// hunterlint: hot
inline double Dot(const std::vector<double>& a, const std::vector<double>& b) {
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) sum += a[i] * b[i];
  return sum;
}

}  // namespace fixture
