#include "reference.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <vector>

namespace esvabench {

double reference_ms(int passes) {
  constexpr std::size_t kKeys = std::size_t{1} << 16;
  std::vector<std::uint32_t> keys(kKeys);
  double best = 0.0;
  for (int p = 0; p < passes; ++p) {
    std::uint64_t x = 88172645463325252ULL;  // xorshift64, same keys each pass
    for (std::uint32_t& k : keys) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      k = static_cast<std::uint32_t>(x >> 16);
    }
    const auto a = std::chrono::steady_clock::now();
    std::sort(keys.begin(), keys.end());
    const auto b = std::chrono::steady_clock::now();
    if (keys.front() > keys.back()) return -1.0;  // keeps the sort observable
    const double ms = std::chrono::duration<double, std::milli>(b - a).count();
    best = p == 0 ? ms : std::min(best, ms);
  }
  return best;
}

}  // namespace esvabench
