#ifndef TITANT_COMMON_ALIAS_TABLE_H_
#define TITANT_COMMON_ALIAS_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/logging.h"
#include "common/random.h"

namespace titant {

/// Walker's alias method: O(n) build, O(1) weighted sampling. Used for
/// random-walk neighbor choice and word2vec's unigram^0.75 negative table.
class AliasTable {
 public:
  AliasTable() = default;

  /// Builds the table from non-negative `weights` (at least one must be
  /// positive). Invalid input leaves the table empty.
  explicit AliasTable(const std::vector<double>& weights) { Build(weights); }

  /// (Re)builds from `weights`; returns false on invalid input.
  bool Build(const std::vector<double>& weights);

  /// Samples an index with probability proportional to its weight, from
  /// one 64-bit draw: the high 32 bits pick the cell by multiply-shift,
  /// the low 32 bits are the coin. Requires a successfully built,
  /// non-empty table.
  std::size_t Sample(Rng& rng) const {
    TITANT_CHECK(!cells_.empty()) << "sampling from an empty AliasTable";
    const uint64_t r = rng.NextU64();
    const std::size_t i = static_cast<std::size_t>(((r >> 32) * cells_.size()) >> 32);
    const Cell& cell = cells_[i];
    return static_cast<uint32_t>(r) < cell.threshold ? i : cell.alias;
  }

  bool empty() const { return cells_.empty(); }
  std::size_t size() const { return cells_.size(); }

 private:
  // Cell i keeps itself when the coin falls below `threshold` (its
  // probability scaled by 2^32), else it yields `alias`.
  struct Cell {
    uint32_t threshold;
    uint32_t alias;
  };
  std::vector<Cell> cells_;
};

}  // namespace titant

#endif  // TITANT_COMMON_ALIAS_TABLE_H_
