// Tests for the network representation learning stack: embedding storage,
// skip-gram training and Structure2Vec.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <vector>

#include "common/random.h"
#include "graph/random_walk.h"
#include "nrl/deepwalk.h"
#include "nrl/embedding.h"
#include "nrl/line.h"
#include "nrl/sgns.h"
#include "nrl/struct2vec.h"
#include "nrl/word2vec.h"

namespace titant::nrl {
namespace {

TEST(EmbeddingTest, SerializeRoundTrip) {
  EmbeddingMatrix m(3, 4);
  for (std::size_t r = 0; r < 3; ++r) {
    for (int c = 0; c < 4; ++c) m.Row(r)[c] = static_cast<float>(r * 10 + c);
  }
  const auto parsed = EmbeddingMatrix::Deserialize(m.Serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->rows(), 3u);
  EXPECT_EQ(parsed->dim(), 4);
  for (std::size_t r = 0; r < 3; ++r) {
    for (int c = 0; c < 4; ++c) EXPECT_EQ(parsed->Row(r)[c], m.Row(r)[c]);
  }
}

TEST(EmbeddingTest, RejectsCorruptBlobs) {
  EmbeddingMatrix m(2, 2);
  std::string blob = m.Serialize();
  EXPECT_FALSE(EmbeddingMatrix::Deserialize(blob.substr(0, 5)).ok());
  blob[0] = 'X';
  EXPECT_FALSE(EmbeddingMatrix::Deserialize(blob).ok());
  EXPECT_FALSE(EmbeddingMatrix::Deserialize(m.Serialize() + "junk").ok());
  // rows = 2^40, dim = 2^24 over an empty payload: the byte count wraps
  // to 0 in 64 bits, so only a bound taken before multiplying rejects it.
  std::string wrap(16, '\0');
  const uint32_t magic = 0x54414E45;
  const uint64_t rows = uint64_t{1} << 40;
  const int32_t dim = 1 << 24;
  std::memcpy(wrap.data(), &magic, sizeof(magic));
  std::memcpy(wrap.data() + 4, &rows, sizeof(rows));
  std::memcpy(wrap.data() + 12, &dim, sizeof(dim));
  EXPECT_FALSE(EmbeddingMatrix::Deserialize(wrap).ok());
}

TEST(EmbeddingTest, FileRoundTrip) {
  EmbeddingMatrix m(5, 3);
  m.Row(2)[1] = 7.5f;
  const std::string path = "/tmp/titant_test_embedding.bin";
  ASSERT_TRUE(m.SaveTo(path).ok());
  const auto loaded = EmbeddingMatrix::LoadFrom(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->Row(2)[1], 7.5f);
  std::filesystem::remove(path);
  EXPECT_FALSE(EmbeddingMatrix::LoadFrom(path).ok());
}

TEST(EmbeddingTest, CosineAndNormalize) {
  EmbeddingMatrix m(3, 2);
  m.Row(0)[0] = 3.0f;  // (3, 0)
  m.Row(1)[0] = 10.0f; // (10, 0) - same direction
  m.Row(2)[1] = 2.0f;  // (0, 2) - orthogonal
  EXPECT_NEAR(m.Cosine(0, 1), 1.0f, 1e-6);
  EXPECT_NEAR(m.Cosine(0, 2), 0.0f, 1e-6);
  m.NormalizeRows();
  EXPECT_NEAR(m.Row(1)[0], 1.0f, 1e-6);
}

// Two dense communities joined by one bridge edge: embeddings must place
// intra-community pairs closer than cross-community pairs.
graph::TransactionNetwork TwoCommunities(int size_per_side, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<graph::NodeId, graph::NodeId>> edges;
  auto add_clique_edges = [&](int base) {
    for (int i = 0; i < size_per_side * 6; ++i) {
      const auto a = static_cast<graph::NodeId>(
          base + static_cast<int>(rng.Uniform(static_cast<uint64_t>(size_per_side))));
      const auto b = static_cast<graph::NodeId>(
          base + static_cast<int>(rng.Uniform(static_cast<uint64_t>(size_per_side))));
      if (a != b) edges.emplace_back(a, b);
    }
  };
  add_clique_edges(0);
  add_clique_edges(size_per_side);
  edges.emplace_back(0, static_cast<graph::NodeId>(size_per_side));
  auto g = graph::TransactionNetwork::FromEdges(
      edges, static_cast<std::size_t>(2 * size_per_side));
  return std::move(g).value();
}

TEST(Word2VecTest, SeparatesCommunities) {
  const int half = 20;
  const auto g = TwoCommunities(half, 3);
  DeepWalkOptions options;
  options.walk.walk_length = 20;
  options.walk.walks_per_node = 30;
  options.w2v.dim = 16;
  options.w2v.epochs = 2;
  const auto embeddings = DeepWalk(g, options);
  ASSERT_TRUE(embeddings.ok());

  double intra = 0.0, inter = 0.0;
  int intra_n = 0, inter_n = 0;
  Rng rng(5);
  for (int i = 0; i < 400; ++i) {
    const auto a = static_cast<std::size_t>(rng.Uniform(2 * half));
    const auto b = static_cast<std::size_t>(rng.Uniform(2 * half));
    if (a == b) continue;
    const bool same = (a < static_cast<std::size_t>(half)) == (b < static_cast<std::size_t>(half));
    const double cos = embeddings->Cosine(a, b);
    if (same) {
      intra += cos;
      ++intra_n;
    } else {
      inter += cos;
      ++inter_n;
    }
  }
  ASSERT_GT(intra_n, 50);
  ASSERT_GT(inter_n, 50);
  EXPECT_GT(intra / intra_n, inter / inter_n + 0.2)
      << "intra=" << intra / intra_n << " inter=" << inter / inter_n;
}

TEST(SgnsKernelTest, MatchesScalarDoubleReference) {
  Rng rng(5);
  for (int dim : {1, 3, 4, 5, 8, 13, 32, 33}) {
    for (bool same_row : {false, true}) {
      SCOPED_TRACE(::testing::Message() << "dim " << dim << " same_row " << same_row);
      const auto n = static_cast<std::size_t>(dim);
      std::vector<float> c(n), t(n), grad(n);
      for (std::size_t d = 0; d < n; ++d) {
        c[d] = static_cast<float>(rng.UniformReal(-1.0, 1.0));
        t[d] = static_cast<float>(rng.UniformReal(-1.0, 1.0));
        grad[d] = static_cast<float>(rng.UniformReal(-1.0, 1.0));
      }
      float* target = t.data();
      const float* center = same_row ? target : c.data();

      double dot = 0.0, dot_scale = 0.0;
      for (std::size_t d = 0; d < n; ++d) {
        dot += static_cast<double>(center[d]) * target[d];
        dot_scale += std::fabs(static_cast<double>(center[d]) * target[d]);
      }
      EXPECT_NEAR(sgns::Dot(center, target, dim), dot, 1e-6 * dot_scale);

      const float g = 0.37f;
      std::vector<double> want_grad(n), want_t(n), grad_scale(n), t_scale(n);
      for (std::size_t d = 0; d < n; ++d) {
        want_grad[d] = grad[d] + static_cast<double>(g) * target[d];
        want_t[d] = target[d] + static_cast<double>(g) * center[d];
        grad_scale[d] = std::fabs(grad[d]) + std::fabs(g * target[d]);
        t_scale[d] = std::fabs(target[d]) + std::fabs(g * center[d]);
      }
      sgns::Update(g, center, target, grad.data(), dim);
      for (std::size_t d = 0; d < n; ++d) {
        EXPECT_NEAR(grad[d], want_grad[d], 1e-6 * grad_scale[d]) << "grad " << d;
        EXPECT_NEAR(t[d], want_t[d], 1e-6 * t_scale[d]) << "t " << d;
      }
    }
  }
}

TEST(Word2VecTest, DeterministicSingleThread) {
  const auto g = TwoCommunities(10, 4);
  graph::RandomWalkOptions walk_options;
  walk_options.walk_length = 10;
  walk_options.walks_per_node = 5;
  const auto corpus = graph::GenerateWalks(g, walk_options);
  ASSERT_TRUE(corpus.ok());
  // Dim 13 also runs the kernel's scalar tail (13 % 4 != 0).
  for (int dim : {8, 13}) {
    Word2VecOptions options;
    options.dim = dim;
    const auto a = TrainSkipGram(*corpus, g.num_nodes(), options);
    const auto b = TrainSkipGram(*corpus, g.num_nodes(), options);
    ASSERT_TRUE(a.ok() && b.ok());
    for (std::size_t r = 0; r < a->rows(); ++r) {
      for (int c = 0; c < a->dim(); ++c) EXPECT_EQ(a->Row(r)[c], b->Row(r)[c]) << "dim " << dim;
    }
  }
}

TEST(Word2VecTest, MultiThreadStillSeparates) {
  const int half = 16;
  const auto g = TwoCommunities(half, 6);
  graph::RandomWalkOptions walk_options;
  walk_options.walk_length = 20;
  walk_options.walks_per_node = 30;
  const auto corpus = graph::GenerateWalks(g, walk_options);
  ASSERT_TRUE(corpus.ok());
  Word2VecOptions options;
  options.dim = 16;
  options.num_threads = 4;
  options.epochs = 2;
  const auto embeddings = TrainSkipGram(*corpus, g.num_nodes(), options);
  ASSERT_TRUE(embeddings.ok());
  // Same community ends up closer on average (Hogwild is nondeterministic
  // but must still learn).
  EXPECT_GT(embeddings->Cosine(1, 2), embeddings->Cosine(1, half + 2) - 0.05);
}

TEST(Word2VecTest, RejectsBadInputs) {
  graph::WalkCorpus corpus;
  corpus.walks = {{0, 1, 2}};
  Word2VecOptions options;
  options.dim = 0;
  EXPECT_FALSE(TrainSkipGram(corpus, 3, options).ok());
  options = Word2VecOptions();
  EXPECT_FALSE(TrainSkipGram(corpus, 2, options).ok());  // Token 2 out of range.
  graph::WalkCorpus empty;
  EXPECT_FALSE(TrainSkipGram(empty, 3, options).ok());
}


class LineOrderTest : public ::testing::TestWithParam<int> {};

TEST_P(LineOrderTest, SeparatesCommunities) {
  const int half = 18;
  const auto g = TwoCommunities(half, 12);
  LineOptions options;
  options.dim = 16;
  options.order = GetParam();
  options.samples_per_edge = 400.0;
  const auto embeddings = TrainLine(g, options);
  ASSERT_TRUE(embeddings.ok()) << embeddings.status().ToString();

  double intra = 0.0, inter = 0.0;
  int n = 0;
  for (int i = 1; i < half; ++i) {
    intra += embeddings->Cosine(1, static_cast<std::size_t>(i));
    inter += embeddings->Cosine(1, static_cast<std::size_t>(half + i));
    ++n;
  }
  EXPECT_GT(intra / n, inter / n + 0.15)
      << "order " << GetParam() << " intra=" << intra / n << " inter=" << inter / n;
}

INSTANTIATE_TEST_SUITE_P(Orders, LineOrderTest, ::testing::Values(1, 2));

TEST(LineTest, ValidatesInput) {
  const auto g = TwoCommunities(5, 1);
  LineOptions options;
  options.order = 3;
  EXPECT_FALSE(TrainLine(g, options).ok());
  options = LineOptions();
  options.dim = 0;
  EXPECT_FALSE(TrainLine(g, options).ok());
  const auto empty = graph::TransactionNetwork::FromEdges({}, 4);
  ASSERT_TRUE(empty.ok());
  EXPECT_FALSE(TrainLine(*empty, LineOptions()).ok());
}

TEST(LineTest, DeterministicForSeed) {
  const auto g = TwoCommunities(8, 2);
  LineOptions options;
  options.dim = 8;
  options.samples_per_edge = 50.0;
  const auto a = TrainLine(g, options);
  const auto b = TrainLine(g, options);
  ASSERT_TRUE(a.ok() && b.ok());
  for (std::size_t r = 0; r < a->rows(); ++r) {
    for (int c = 0; c < a->dim(); ++c) EXPECT_EQ(a->Row(r)[c], b->Row(r)[c]);
  }
}

TEST(Struct2VecTest, ProducesLiveEmbeddings) {
  const auto g = TwoCommunities(15, 8);
  NodeLabels labels;
  labels.label.assign(g.num_nodes(), 0);
  labels.has_label.assign(g.num_nodes(), 1);
  for (std::size_t v = 0; v < 15; ++v) labels.label[v] = 1;  // One side positive.
  Struct2VecOptions options;
  options.dim = 8;
  const auto embeddings = Struct2Vec(g, labels, options);
  ASSERT_TRUE(embeddings.ok());
  // Not collapsed: at least half the rows must have non-trivial norm.
  std::size_t live = 0;
  for (std::size_t v = 0; v < embeddings->rows(); ++v) {
    double norm = 0.0;
    for (int c = 0; c < embeddings->dim(); ++c) {
      norm += static_cast<double>(embeddings->Row(v)[c]) * embeddings->Row(v)[c];
    }
    if (norm > 1e-6) ++live;
  }
  EXPECT_GT(live, embeddings->rows() / 2);
}

TEST(Struct2VecTest, EmbeddingsReflectDegreeStructure) {
  // A star: hub 0 with 20 spokes. The hub's embedding must differ from a
  // spoke's far more than spokes differ among themselves.
  std::vector<std::pair<graph::NodeId, graph::NodeId>> edges;
  for (graph::NodeId v = 1; v <= 20; ++v) edges.emplace_back(v, 0);
  auto g = graph::TransactionNetwork::FromEdges(edges, 21);
  ASSERT_TRUE(g.ok());
  NodeLabels labels;
  labels.label.assign(21, 0);
  labels.label[0] = 1;
  labels.has_label.assign(21, 1);
  Struct2VecOptions options;
  options.dim = 8;
  const auto embeddings = Struct2Vec(*g, labels, options);
  ASSERT_TRUE(embeddings.ok());
  auto distance = [&](std::size_t a, std::size_t b) {
    double d = 0.0;
    for (int c = 0; c < embeddings->dim(); ++c) {
      const double diff = embeddings->Row(a)[c] - embeddings->Row(b)[c];
      d += diff * diff;
    }
    return std::sqrt(d);
  };
  EXPECT_GT(distance(0, 1), 3.0 * distance(1, 2));
}

TEST(Struct2VecTest, RejectsBadInputs) {
  const auto g = TwoCommunities(5, 1);
  NodeLabels labels;  // Wrong sizes.
  Struct2VecOptions options;
  EXPECT_FALSE(Struct2Vec(g, labels, options).ok());
  labels.label.assign(g.num_nodes(), 0);
  labels.has_label.assign(g.num_nodes(), 0);  // Nothing labeled.
  EXPECT_FALSE(Struct2Vec(g, labels, options).ok());
}

}  // namespace
}  // namespace titant::nrl
