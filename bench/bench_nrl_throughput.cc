// Micro-benchmarks for the NRL substrate: random-walk corpus generation
// and skip-gram training throughput. The measured token rate also documents
// the calibration basis of the Fig. 10 cluster simulation (ps/sim.h).

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "graph/random_walk.h"
#include "nrl/struct2vec.h"
#include "nrl/word2vec.h"

namespace {

using titant::benchutil::CheckOk;

titant::graph::TransactionNetwork MakeNetwork() {
  // Static world shared by all benchmarks in this binary.
  static auto* world = new titant::datagen::World(CheckOk([] {
    titant::datagen::WorldOptions options;
    options.num_users = 2000;
    options.num_days = 90;
    return titant::datagen::GenerateWorld(options);
  }()));
  std::vector<std::size_t> all(world->log.records.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  return CheckOk(titant::graph::TransactionNetwork::FromRecords(world->log, all,
                                                                world->log.num_users()));
}

void BM_RandomWalkGeneration(benchmark::State& state) {
  const auto network = MakeNetwork();
  titant::graph::RandomWalkOptions options;
  options.walk_length = 50;
  options.walks_per_node = 2;
  uint64_t tokens = 0;
  for (auto _ : state) {
    options.seed++;
    const auto corpus = CheckOk(titant::graph::GenerateWalks(network, options));
    tokens += corpus.TotalTokens();
    benchmark::DoNotOptimize(corpus.walks.size());
  }
  state.counters["tokens_per_s"] =
      benchmark::Counter(static_cast<double>(tokens), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_RandomWalkGeneration)->Unit(benchmark::kMillisecond);

void BM_SkipGramTraining(benchmark::State& state) {
  const auto network = MakeNetwork();
  titant::graph::RandomWalkOptions walk_options;
  walk_options.walk_length = 50;
  walk_options.walks_per_node = 2;
  const auto corpus = CheckOk(titant::graph::GenerateWalks(network, walk_options));

  titant::nrl::Word2VecOptions options;
  options.dim = 32;
  uint64_t tokens = 0;
  for (auto _ : state) {
    options.seed++;
    const auto embeddings =
        CheckOk(titant::nrl::TrainSkipGram(corpus, network.num_nodes(), options));
    tokens += corpus.TotalTokens();
    benchmark::DoNotOptimize(embeddings.rows());
  }
  // Corpus tokens trained per second, the unit of perfbench's
  // nrl.word2vec_tokens_per_s.
  state.counters["tokens_per_s"] =
      benchmark::Counter(static_cast<double>(tokens), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SkipGramTraining)->Unit(benchmark::kMillisecond);

void BM_Struct2Vec(benchmark::State& state) {
  const auto network = MakeNetwork();
  titant::nrl::NodeLabels labels;
  labels.label.assign(network.num_nodes(), 0);
  labels.has_label.assign(network.num_nodes(), 1);
  for (std::size_t v = 0; v < network.num_nodes(); v += 37) labels.label[v] = 1;
  titant::nrl::Struct2VecOptions options;
  options.dim = 32;
  for (auto _ : state) {
    options.seed++;
    const auto embeddings = CheckOk(titant::nrl::Struct2Vec(network, labels, options));
    benchmark::DoNotOptimize(embeddings.rows());
  }
}
BENCHMARK(BM_Struct2Vec)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
