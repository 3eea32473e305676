#ifndef PSPC_SRC_LABEL_SPC_INDEX_H_
#define PSPC_SRC_LABEL_SPC_INDEX_H_

#include <span>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/common/types.h"
#include "src/label/label_entry.h"
#include "src/order/vertex_order.h"

/// The finalized, immutable 2-hop SPC index.
///
/// Per vertex, entries sorted by hub rank are stored in one flat array
/// (CSR layout). A query scans `L(s)` and `L(t)` with a sorted merge,
/// keeps the common hubs minimizing `sd(s,h) + sd(h,t)`, and sums
/// `theta(s,h) * theta(h,t)` over them — Equations (1) and (2) of the
/// paper. Exactness follows from the ESPC property of the stored
/// labels: every shortest path is counted exactly once, at its unique
/// highest-ranked vertex.
namespace pspc {

/// Flattens per-vertex entry lists (any order within a list) into a
/// CSR table, sorting each list by hub rank.
LabelCsr FlattenLabels(std::vector<std::vector<LabelEntry>> labels);

class SpcIndex {
 public:
  /// Empty index (queries abort); use a builder from src/core/.
  SpcIndex() = default;

  /// Assembles from per-vertex entry lists in any order; entries are
  /// sorted by hub rank and flattened. `labels.size()` must equal
  /// `order.Size()`.
  SpcIndex(VertexOrder order, std::vector<std::vector<LabelEntry>> labels);

  /// Adopts an already rank-sorted CSR table; `labels.offsets.size()`
  /// must equal `order.Size() + 1`.
  SpcIndex(VertexOrder order, LabelCsr labels);

  /// Number of indexed vertices.
  VertexId NumVertices() const {
    return offsets_.empty() ? 0 : static_cast<VertexId>(offsets_.size() - 1);
  }

  /// Distance and exact number of shortest paths between `s` and `t`.
  /// `(kInfDistance, 0)` if disconnected; `(0, 1)` if `s == t`.
  SpcResult Query(VertexId s, VertexId t) const;

  /// Label entries of `v`, sorted by hub rank.
  std::span<const LabelEntry> Labels(VertexId v) const {
    return {entries_.data() + offsets_[v], entries_.data() + offsets_[v + 1]};
  }

  /// Non-owning CSR view of the label table (the base a dynamic
  /// overlay reads through); valid while the index is alive.
  BaseLabelMap LabelMap() const {
    return {offsets_.data(), entries_.data(), NumVertices()};
  }

  /// The vertex order the index was built under.
  const VertexOrder& Order() const { return order_; }

  /// Total number of label entries.
  size_t TotalEntries() const { return entries_.size(); }

  /// Mean entries per vertex.
  double AverageLabelSize() const;

  /// In-memory footprint of the label arrays + offsets, in bytes — the
  /// "index size" metric of the paper's Fig. 6.
  size_t SizeBytes() const;

  /// Binary persistence (magic-checked; Corruption on mismatch).
  Status Save(const std::string& path) const;
  static Result<SpcIndex> Load(const std::string& path);

  /// Structural equality: same order and identical entry arrays. Used
  /// by tests for the paper's determinism claim (Exp 2: the index is
  /// identical for any thread count).
  friend bool operator==(const SpcIndex&, const SpcIndex&) = default;

 private:
  VertexOrder order_;
  std::vector<uint64_t> offsets_;  // n + 1
  std::vector<LabelEntry> entries_;
};

}  // namespace pspc

#endif  // PSPC_SRC_LABEL_SPC_INDEX_H_
