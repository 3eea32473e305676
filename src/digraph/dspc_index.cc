#include "src/digraph/dspc_index.h"

#include <utility>

#include "src/common/logging.h"
#include "src/label/label_merge.h"
#include "src/label/spc_index.h"

namespace pspc {

DiSpcIndex::DiSpcIndex(VertexOrder order,
                       std::vector<std::vector<LabelEntry>> out,
                       std::vector<std::vector<LabelEntry>> in)
    : DiSpcIndex(std::move(order), FlattenLabels(std::move(out)),
                 FlattenLabels(std::move(in))) {}

DiSpcIndex::DiSpcIndex(VertexOrder order, LabelCsr out, LabelCsr in)
    : order_(std::move(order)),
      out_offsets_(std::move(out.offsets)),
      in_offsets_(std::move(in.offsets)),
      out_entries_(std::move(out.entries)),
      in_entries_(std::move(in.entries)) {
  PSPC_CHECK(out_offsets_.size() == order_.Size() + 1);
  PSPC_CHECK(in_offsets_.size() == order_.Size() + 1);
  PSPC_CHECK(out_offsets_.back() == out_entries_.size());
  PSPC_CHECK(in_offsets_.back() == in_entries_.size());
}

SpcResult DiSpcIndex::Query(VertexId s, VertexId t) const {
  PSPC_CHECK_MSG(s < NumVertices() && t < NumVertices(),
                 "query (" << s << "," << t << ") out of range");
  if (s == t) return {0, 1};
  return MergeLabelCounts(OutLabels(s), InLabels(t));
}

}  // namespace pspc
