#include "serve/pattern_index.h"

#include <algorithm>

namespace wiclean {

PatternIndex::PatternIndex(const TypeTaxonomy* taxonomy,
                           int max_abstraction_lift)
    : taxonomy_(taxonomy), max_abstraction_lift_(max_abstraction_lift) {}

Status PatternIndex::AddPattern(uint32_t pattern_id, const Pattern& pattern) {
  for (size_t i = 0; i < pattern.num_actions(); ++i) {
    const AbstractAction& a = pattern.actions()[i];
    if (a.source_var < 0 ||
        static_cast<size_t>(a.source_var) >= pattern.num_vars() ||
        a.target_var < 0 ||
        static_cast<size_t>(a.target_var) >= pattern.num_vars()) {
      return Status::InvalidArgument("pattern action references unknown var");
    }
    TypeId src = pattern.var_type(a.source_var);
    TypeId tgt = pattern.var_type(a.target_var);
    if (!taxonomy_->IsValid(src) || !taxonomy_->IsValid(tgt)) {
      return Status::InvalidArgument("pattern variable has invalid type");
    }
    if (src >= (TypeId{1} << kTypeBits) || tgt >= (TypeId{1} << kTypeBits)) {
      return Status::InvalidArgument("type id too large for index key");
    }
    if (a.relation.id() >= kMaxRelationId) {
      return Status::InvalidArgument("relation id too large for index key");
    }
    slots_[PackKey(a.relation, src, tgt)].push_back(
        PatternSlot{pattern_id, static_cast<uint32_t>(i)});
    ++num_slots_;
  }
  return Status::OK();
}

void PatternIndex::Lookup(TypeId subject_type, Relation relation,
                          TypeId object_type,
                          std::vector<PatternSlot>* out) const {
  out->clear();
  if (!taxonomy_->IsValid(subject_type) || !taxonomy_->IsValid(object_type) ||
      subject_type >= (TypeId{1} << kTypeBits) ||
      object_type >= (TypeId{1} << kTypeBits) ||
      relation.id() >= kMaxRelationId) {
    return;
  }
  // Mirror ActionIndex::IngestAction: a pattern action whose variable types
  // are among the first (lift + 1) ancestors of the concrete endpoint types
  // would have received this edit in its batch realization table. Walking
  // Parent() enumerates exactly the AncestorsOf prefix, most-specific first,
  // without allocating.
  TypeId src = subject_type;
  for (int i = 0; i <= max_abstraction_lift_ && src != kInvalidTypeId;
       ++i, src = taxonomy_->Parent(src)) {
    TypeId tgt = object_type;
    for (int j = 0; j <= max_abstraction_lift_ && tgt != kInvalidTypeId;
         ++j, tgt = taxonomy_->Parent(tgt)) {
      auto it = slots_.find(PackKey(relation, src, tgt));
      if (it == slots_.end()) continue;
      out->insert(out->end(), it->second.begin(), it->second.end());
    }
  }
}

}  // namespace wiclean
