#include "nrl/word2vec.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <vector>

#include "common/alias_table.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "nrl/sgns.h"

namespace titant::nrl {

StatusOr<EmbeddingMatrix> TrainSkipGram(const graph::WalkCorpus& corpus, std::size_t num_nodes,
                                        const Word2VecOptions& options) {
  if (options.dim <= 0) return Status::InvalidArgument("dim must be positive");
  if (options.window <= 0) return Status::InvalidArgument("window must be positive");
  if (options.negatives < 0) return Status::InvalidArgument("negatives must be >= 0");
  if (options.epochs <= 0) return Status::InvalidArgument("epochs must be positive");
  if (num_nodes == 0) return Status::InvalidArgument("num_nodes must be positive");
  for (const auto& walk : corpus.walks) {
    for (auto node : walk) {
      if (node >= num_nodes) return Status::OutOfRange("walk token beyond num_nodes");
    }
  }

  const int dim = options.dim;
  EmbeddingMatrix syn0(num_nodes, dim);  // Input vectors (the output artifact).
  EmbeddingMatrix syn1(num_nodes, dim);  // Output ("context") vectors, zero-init.
  {
    Rng init_rng(options.seed);
    for (std::size_t v = 0; v < num_nodes; ++v) {
      float* row = syn0.Row(v);
      for (int j = 0; j < dim; ++j) {
        row[j] = static_cast<float>((init_rng.NextDouble() - 0.5) / dim);
      }
    }
  }

  // Unigram^0.75 negative-sampling table over corpus frequencies.
  std::vector<double> freq(num_nodes, 0.0);
  for (const auto& walk : corpus.walks) {
    for (auto node : walk) freq[node] += 1.0;
  }
  std::vector<double> neg_weight(num_nodes, 0.0);
  for (std::size_t v = 0; v < num_nodes; ++v) {
    if (freq[v] > 0.0) neg_weight[v] = std::pow(freq[v], options.neg_power);
  }
  AliasTable neg_table;
  if (!neg_table.Build(neg_weight)) {
    return Status::InvalidArgument("corpus is empty; nothing to train");
  }

  const double total_tokens =
      static_cast<double>(corpus.TotalTokens()) * options.epochs + 1.0;
  std::atomic<uint64_t> tokens_done{0};

  // One shard of walks per thread; Hogwild updates on shared matrices.
  auto train_range = [&](std::size_t walk_begin, std::size_t walk_end, uint64_t seed) {
    Rng rng(seed);
    std::vector<float> grad_center(static_cast<std::size_t>(dim));
    for (int epoch = 0; epoch < options.epochs; ++epoch) {
      for (std::size_t wi = walk_begin; wi < walk_end; ++wi) {
        const auto& walk = corpus.walks[wi];
        const uint64_t done =
            tokens_done.fetch_add(walk.size(), std::memory_order_relaxed);
        const float progress = static_cast<float>(done / total_tokens);
        const float alpha =
            std::max(options.min_alpha, options.alpha * (1.0f - progress));
        for (std::size_t i = 0; i < walk.size(); ++i) {
          const auto center = walk[i];
          // Dynamic window: uniform in [1, window], as in word2vec.c.
          const int reduced =
              1 + static_cast<int>(rng.Uniform(static_cast<uint64_t>(options.window)));
          const std::size_t lo = i >= static_cast<std::size_t>(reduced) ? i - reduced : 0;
          const std::size_t hi = std::min(walk.size() - 1, i + reduced);
          for (std::size_t j = lo; j <= hi; ++j) {
            if (j == i) continue;
            const auto context = walk[j];
            float* v_center = syn0.Row(center);
            std::fill(grad_center.begin(), grad_center.end(), 0.0f);
            // One positive + `negatives` sampled negatives.
            sgns::Step(v_center, syn1.Row(context), 1.0f, alpha, grad_center.data(), dim);
            for (int s = 0; s < options.negatives; ++s) {
              const std::size_t target = neg_table.Sample(rng);
              if (target == context) continue;
              sgns::Step(v_center, syn1.Row(target), 0.0f, alpha, grad_center.data(), dim);
            }
            sgns::AddTo(v_center, grad_center.data(), dim);
          }
        }
      }
    }
  };

  const int threads = std::max(1, options.num_threads);
  if (threads == 1) {
    train_range(0, corpus.walks.size(), options.seed ^ 0x9E3779B9ULL);
  } else {
    ThreadPool pool(static_cast<std::size_t>(threads));
    const std::size_t per =
        (corpus.walks.size() + static_cast<std::size_t>(threads) - 1) /
        static_cast<std::size_t>(threads);
    for (int t = 0; t < threads; ++t) {
      const std::size_t begin = static_cast<std::size_t>(t) * per;
      const std::size_t end = std::min(corpus.walks.size(), begin + per);
      if (begin >= end) break;
      pool.Submit([&train_range, begin, end, t, &options] {
        train_range(begin, end, options.seed + 0x1234ULL * static_cast<uint64_t>(t + 1));
      });
    }
    pool.Wait();
  }

  return syn0;
}

}  // namespace titant::nrl
