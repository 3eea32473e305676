#ifndef PSPC_SRC_DIGRAPH_DSPC_INDEX_H_
#define PSPC_SRC_DIGRAPH_DSPC_INDEX_H_

#include <span>
#include <vector>

#include "src/common/types.h"
#include "src/label/label_entry.h"
#include "src/order/vertex_order.h"

/// Directed 2-hop SPC index (paper §II-A): each vertex `v` carries an
/// out-label `Lout(v)` — entries `(h, sd(v,h), #trough paths v->h)` —
/// and an in-label `Lin(v)` — entries `(h, sd(h,v), #trough paths
/// h->v)`. A trough path's hub `h` is the strictly highest-ranked
/// vertex on the (directed) path. `SPC(s, t)` merges `Lout(s)` with
/// `Lin(t)` exactly as Eq. (1)/(2): every shortest s->t path splits
/// uniquely at its apex.
namespace pspc {

class DiSpcIndex {
 public:
  DiSpcIndex() = default;

  /// Assembles from per-vertex out/in entry lists (sorted on entry or
  /// not — they are sorted by hub rank here).
  DiSpcIndex(VertexOrder order, std::vector<std::vector<LabelEntry>> out,
             std::vector<std::vector<LabelEntry>> in);

  /// Adopts already rank-sorted CSR tables, one per label side.
  DiSpcIndex(VertexOrder order, LabelCsr out, LabelCsr in);

  VertexId NumVertices() const {
    return out_offsets_.empty()
               ? 0
               : static_cast<VertexId>(out_offsets_.size() - 1);
  }

  /// Distance and exact count of shortest directed paths s -> t.
  SpcResult Query(VertexId s, VertexId t) const;

  std::span<const LabelEntry> OutLabels(VertexId v) const {
    return {out_entries_.data() + out_offsets_[v],
            out_entries_.data() + out_offsets_[v + 1]};
  }
  std::span<const LabelEntry> InLabels(VertexId v) const {
    return {in_entries_.data() + in_offsets_[v],
            in_entries_.data() + in_offsets_[v + 1]};
  }

  /// Non-owning CSR views of the two label tables (what a dynamic
  /// overlay reads through); valid while the index is alive.
  BaseLabelMap OutLabelMap() const {
    return {out_offsets_.data(), out_entries_.data(), NumVertices()};
  }
  BaseLabelMap InLabelMap() const {
    return {in_offsets_.data(), in_entries_.data(), NumVertices()};
  }

  const VertexOrder& Order() const { return order_; }
  size_t TotalEntries() const {
    return out_entries_.size() + in_entries_.size();
  }
  size_t SizeBytes() const {
    return TotalEntries() * sizeof(LabelEntry) +
           (out_offsets_.size() + in_offsets_.size()) * sizeof(uint64_t);
  }

  friend bool operator==(const DiSpcIndex&, const DiSpcIndex&) = default;

 private:
  VertexOrder order_;
  std::vector<uint64_t> out_offsets_, in_offsets_;
  std::vector<LabelEntry> out_entries_, in_entries_;
};

}  // namespace pspc

#endif  // PSPC_SRC_DIGRAPH_DSPC_INDEX_H_
