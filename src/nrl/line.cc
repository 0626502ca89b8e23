#include "nrl/line.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/alias_table.h"
#include "common/random.h"
#include "nrl/sgns.h"

namespace titant::nrl {

StatusOr<EmbeddingMatrix> TrainLine(const graph::TransactionNetwork& network,
                                    const LineOptions& options) {
  if (options.dim <= 0) return Status::InvalidArgument("dim must be positive");
  if (options.order != 1 && options.order != 2) {
    return Status::InvalidArgument("order must be 1 or 2");
  }
  if (options.samples_per_edge <= 0.0) {
    return Status::InvalidArgument("samples_per_edge must be positive");
  }
  if (network.num_edges() == 0) return Status::InvalidArgument("empty network");

  const std::size_t n = network.num_nodes();
  const int dim = options.dim;

  // Flatten the edge list (both directions) with weights for alias sampling.
  std::vector<std::pair<graph::NodeId, graph::NodeId>> edges;
  std::vector<double> edge_weights;
  edges.reserve(network.num_edges() * 2);
  for (graph::NodeId v : network.active_nodes()) {
    auto [begin, end] = network.OutNeighbors(v);
    for (const auto* e = begin; e != end; ++e) {
      edges.emplace_back(v, e->neighbor);
      edge_weights.push_back(e->weight);
      edges.emplace_back(e->neighbor, v);
      edge_weights.push_back(e->weight);
    }
  }
  AliasTable edge_table;
  if (!edge_table.Build(edge_weights)) return Status::InvalidArgument("degenerate weights");

  // Negative table over weighted degrees^0.75.
  std::vector<double> neg_weight(n, 0.0);
  for (graph::NodeId v : network.active_nodes()) {
    const double degree = static_cast<double>(network.Degree(v));
    if (degree > 0.0) neg_weight[v] = std::pow(degree, options.neg_power);
  }
  AliasTable neg_table;
  if (!neg_table.Build(neg_weight)) return Status::InvalidArgument("degenerate degrees");

  EmbeddingMatrix vertex(n, dim);
  EmbeddingMatrix context(n, dim);  // Used by second-order only.
  // First-order trains vertex·vertex; second-order vertex·context.
  EmbeddingMatrix& others = options.order == 1 ? vertex : context;
  Rng rng(options.seed);
  for (std::size_t v = 0; v < n; ++v) {
    float* row = vertex.Row(v);
    for (int j = 0; j < dim; ++j) {
      row[j] = static_cast<float>((rng.NextDouble() - 0.5) / dim);
    }
  }

  const uint64_t total_samples = static_cast<uint64_t>(
      options.samples_per_edge * static_cast<double>(network.num_edges()));
  std::vector<float> grad(static_cast<std::size_t>(dim));
  for (uint64_t step = 0; step < total_samples; ++step) {
    const float progress = static_cast<float>(static_cast<double>(step) / (total_samples + 1.0));
    const float alpha = std::max(options.min_alpha, options.alpha * (1.0f - progress));

    const auto [source, target] = edges[edge_table.Sample(rng)];
    float* v_source = vertex.Row(source);
    std::fill(grad.begin(), grad.end(), 0.0f);
    sgns::Step(v_source, others.Row(target), 1.0f, alpha, grad.data(), dim);
    for (int s = 0; s < options.negatives; ++s) {
      const std::size_t other = neg_table.Sample(rng);
      if (other == target || other == source) continue;
      sgns::Step(v_source, others.Row(other), 0.0f, alpha, grad.data(), dim);
    }
    sgns::AddTo(v_source, grad.data(), dim);
  }
  return vertex;
}

}  // namespace titant::nrl
