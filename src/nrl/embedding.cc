#include "nrl/embedding.h"

#include <cmath>
#include <cstring>
#include <fstream>

namespace titant::nrl {

namespace {
constexpr uint32_t kMagic = 0x54414E45;  // "ENAT"
}  // namespace

void EmbeddingMatrix::NormalizeRows() {
  for (std::size_t i = 0; i < rows_; ++i) {
    float* row = Row(i);
    double norm_sq = 0.0;
    for (int j = 0; j < dim_; ++j) norm_sq += static_cast<double>(row[j]) * row[j];
    if (norm_sq <= 0.0) continue;
    const float inv = static_cast<float>(1.0 / std::sqrt(norm_sq));
    for (int j = 0; j < dim_; ++j) row[j] *= inv;
  }
}

float EmbeddingMatrix::Cosine(std::size_t a, std::size_t b) const {
  const float* ra = Row(a);
  const float* rb = Row(b);
  double dot = 0.0, na = 0.0, nb = 0.0;
  for (int j = 0; j < dim_; ++j) {
    dot += static_cast<double>(ra[j]) * rb[j];
    na += static_cast<double>(ra[j]) * ra[j];
    nb += static_cast<double>(rb[j]) * rb[j];
  }
  if (na <= 0.0 || nb <= 0.0) return 0.0f;
  return static_cast<float>(dot / (std::sqrt(na) * std::sqrt(nb)));
}

std::string EmbeddingMatrix::Serialize() const {
  std::string blob;
  blob.resize(sizeof(uint32_t) + sizeof(uint64_t) + sizeof(int32_t) +
              data_.size() * sizeof(float));
  char* p = blob.data();
  const uint32_t magic = kMagic;
  std::memcpy(p, &magic, sizeof(magic));
  p += sizeof(magic);
  const uint64_t rows = rows_;
  std::memcpy(p, &rows, sizeof(rows));
  p += sizeof(rows);
  const int32_t dim = dim_;
  std::memcpy(p, &dim, sizeof(dim));
  p += sizeof(dim);
  std::memcpy(p, data_.data(), data_.size() * sizeof(float));
  return blob;
}

StatusOr<EmbeddingMatrix> EmbeddingMatrix::Deserialize(const std::string& blob) {
  const std::size_t header = sizeof(uint32_t) + sizeof(uint64_t) + sizeof(int32_t);
  if (blob.size() < header) return Status::Corruption("embedding blob too short");
  const char* p = blob.data();
  uint32_t magic = 0;
  std::memcpy(&magic, p, sizeof(magic));
  p += sizeof(magic);
  if (magic != kMagic) return Status::Corruption("bad embedding magic");
  uint64_t rows = 0;
  std::memcpy(&rows, p, sizeof(rows));
  p += sizeof(rows);
  int32_t dim = 0;
  std::memcpy(&dim, p, sizeof(dim));
  p += sizeof(dim);
  // Bound the shape by the payload before multiplying, so the product
  // cannot wrap.
  const std::size_t floats = (blob.size() - header) / sizeof(float);
  if (dim < 0 || rows > (1ULL << 40) ||
      (dim > 0 && rows > floats / static_cast<std::size_t>(dim))) {
    return Status::Corruption("implausible embedding shape");
  }
  const std::size_t expect = header + static_cast<std::size_t>(rows) * dim * sizeof(float);
  if (blob.size() != expect) return Status::Corruption("embedding blob size mismatch");
  EmbeddingMatrix m(static_cast<std::size_t>(rows), dim);
  std::memcpy(m.data_.data(), p, m.data_.size() * sizeof(float));
  return m;
}

Status EmbeddingMatrix::SaveTo(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("cannot open for write: " + path);
  const std::string blob = Serialize();
  out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
  if (!out) return Status::IOError("short write: " + path);
  return Status::OK();
}

StatusOr<EmbeddingMatrix> EmbeddingMatrix::LoadFrom(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open for read: " + path);
  std::string blob((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  return Deserialize(blob);
}

}  // namespace titant::nrl
