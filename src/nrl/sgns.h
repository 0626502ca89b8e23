#ifndef TITANT_NRL_SGNS_H_
#define TITANT_NRL_SGNS_H_

// The skip-gram-with-negative-sampling (SGNS) pair update shared by
// word2vec (TrainSkipGram), LINE (TrainLine) and the parameter-server
// DeepWalk trainer. Library-internal: not part of the public nrl API.
//
// The loops run over four float lanes (GCC/Clang vector extensions, which
// lower to SSE on baseline x86-64 and NEON on arm64 with no -march flag),
// with a scalar tail for dim % 4. Every reduction has a fixed order, so a
// single-threaded trainer is bit-identical from run to run.

#include <algorithm>
#include <cmath>
#include <cstring>

namespace titant::nrl::sgns {

typedef float Lanes __attribute__((vector_size(16)));
inline constexpr int kLanes = 4;

inline Lanes Load(const float* p) {
  Lanes v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline void Store(float* p, Lanes v) { std::memcpy(p, &v, sizeof(v)); }

// Precomputed sigmoid over [-kMaxExp, kMaxExp], the classic word2vec trick.
class SigmoidTable {
 public:
  SigmoidTable() {
    for (int i = 0; i < kSize; ++i) {
      const double x = (static_cast<double>(i) / kSize * 2.0 - 1.0) * kMaxExp;
      table_[i] = static_cast<float>(1.0 / (1.0 + std::exp(-x)));
    }
  }

  float operator()(float x) const {
    if (x >= kMaxExp) return 1.0f;
    if (x <= -kMaxExp) return 0.0f;
    const int idx = static_cast<int>((x + kMaxExp) * (kSize / (2.0f * kMaxExp)));
    return table_[std::clamp(idx, 0, kSize - 1)];
  }

 private:
  static constexpr int kSize = 1024;
  static constexpr float kMaxExp = 6.0f;
  float table_[kSize];
};

inline const SigmoidTable kSigmoid;

// a · b: four lane sums over the 4-aligned prefix, folded as
// (l0 + l1) + (l2 + l3), then the tail added in index order.
inline float Dot(const float* a, const float* b, int dim) {
  Lanes acc = {0.0f, 0.0f, 0.0f, 0.0f};
  int d = 0;
  for (; d + kLanes <= dim; d += kLanes) acc += Load(a + d) * Load(b + d);
  float sum = (acc[0] + acc[1]) + (acc[2] + acc[3]);
  for (; d < dim; ++d) sum += a[d] * b[d];
  return sum;
}

// The fused update grad += g·t; t += g·c. `c` may be the same row as `t`
// (each lane reads both before it writes); `grad` must overlap neither.
inline void Update(float g, const float* c, float* t, float* grad, int dim) {
  int d = 0;
  for (; d + kLanes <= dim; d += kLanes) {
    const Lanes tv = Load(t + d);
    const Lanes cv = Load(c + d);
    Store(grad + d, Load(grad + d) + g * tv);
    Store(t + d, tv + g * cv);
  }
  for (; d < dim; ++d) {
    const float tv = t[d];
    const float cv = c[d];
    grad[d] += g * tv;
    t[d] = tv + g * cv;
  }
}

// One SGNS step of center `c` against target `t` with `label` 1 (the
// context) or 0 (a negative): Update with g = (label - σ(c·t))·alpha. The
// caller adds `grad` into `c` after the pair's last target (AddTo).
inline void Step(const float* c, float* t, float label, float alpha, float* grad, int dim) {
  Update((label - kSigmoid(Dot(c, t, dim))) * alpha, c, t, grad, dim);
}

// dst += src.
inline void AddTo(float* dst, const float* src, int dim) {
  int d = 0;
  for (; d + kLanes <= dim; d += kLanes) Store(dst + d, Load(dst + d) + Load(src + d));
  for (; d < dim; ++d) dst[d] += src[d];
}

}  // namespace titant::nrl::sgns

#endif  // TITANT_NRL_SGNS_H_
