#include "serve/pattern_index.h"

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
    slots_[AbstractActionKey{EditOp::kAdd, src, a.relation, tgt}].push_back(
        PatternSlot{pattern_id, static_cast<uint32_t>(i)});
    ++num_slots_;
  }
  return Status::OK();
}

void PatternIndex::Lookup(TypeId subject_type, Relation relation,
                          TypeId object_type,
                          std::vector<PatternSlot>* out) const {
  out->clear();
  // Most-specific keys first, in ForEachAbstraction's order.
  AbstractActionKey key{EditOp::kAdd, kInvalidTypeId, relation,
                        kInvalidTypeId};
  ForEachAbstraction(*taxonomy_, subject_type, object_type,
                     max_abstraction_lift_, [&](TypeId src, TypeId tgt) {
                       key.source_type = src;
                       key.target_type = tgt;
                       auto it = slots_.find(key);
                       if (it == slots_.end()) return;
                       out->insert(out->end(), it->second.begin(),
                                   it->second.end());
                     });
}

}  // namespace wiclean
