#include "common/alias_table.h"

#include <algorithm>
#include <cmath>

namespace titant {

namespace {

// A probability in [0, 1) as a 32-bit coin threshold; one that rounds up
// to 2^32 saturates.
uint32_t Threshold(double p) {
  return static_cast<uint32_t>(std::min(p * 0x1.0p32, static_cast<double>(UINT32_MAX)));
}

}  // namespace

bool AliasTable::Build(const std::vector<double>& weights) {
  cells_.clear();
  // The multiply-shift index and the 32-bit alias reach 2^32 cells.
  if (weights.empty() || weights.size() > (uint64_t{1} << 32)) return false;
  double total = 0.0;
  for (double w : weights) {
    if (!(w >= 0.0)) return false;  // Negative or NaN.
    total += w;
  }
  if (!(total > 0.0) || std::isinf(total)) return false;

  const std::size_t n = weights.size();
  cells_.resize(n);
  std::vector<double> scaled(n);
  for (std::size_t i = 0; i < n; ++i) scaled[i] = weights[i] * static_cast<double>(n) / total;

  std::vector<uint32_t> small, large;
  small.reserve(n);
  large.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    (scaled[i] < 1.0 ? small : large).push_back(static_cast<uint32_t>(i));
  }
  while (!small.empty() && !large.empty()) {
    const uint32_t s = small.back();
    small.pop_back();
    const uint32_t l = large.back();
    large.pop_back();
    cells_[s] = {Threshold(scaled[s]), l};
    scaled[l] = scaled[l] + scaled[s] - 1.0;
    (scaled[l] < 1.0 ? small : large).push_back(l);
  }
  // Numerical leftovers: both stacks hold cells with probability ~1.
  for (uint32_t s : small) cells_[s] = {UINT32_MAX, s};
  for (uint32_t l : large) cells_[l] = {UINT32_MAX, l};
  return true;
}

}  // namespace titant
