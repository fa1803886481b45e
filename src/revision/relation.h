#ifndef WICLEAN_REVISION_RELATION_H_
#define WICLEAN_REVISION_RELATION_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

namespace wiclean {

/// A link label l of an action (±, (u, l, v), t), held as a 4-byte id into
/// the one process-wide, append-only relation table. Building a Relation
/// from a name interns it; a name keeps its id for the life of the process,
/// so ids compare across every store, index, pattern and snapshot, and no
/// layer re-interns a label.
///
/// Ids follow the order names were first interned, which varies with
/// threads and inputs, so no output order may derive from them:
///   - == and std::hash compare ids;
///   - < compares names, so sorts and ordered maps keyed on relations order
///     them by name.
///
/// Converts implicitly from a name, as std::string does from a literal. The
/// default Relation is the empty name. Interning a known name takes no lock
/// (a per-thread cache answers it); name() never locks and returns a
/// reference that stays valid for the process. Safe to use from any thread.
class Relation {
 public:
  Relation() = default;
  Relation(std::string_view name);  // NOLINT(google-explicit-constructor)
  Relation(const char* name) : Relation(std::string_view(name)) {}
  Relation(const std::string& name) : Relation(std::string_view(name)) {}

  uint32_t id() const { return id_; }
  const std::string& name() const;

  friend bool operator==(Relation a, Relation b) { return a.id_ == b.id_; }
  friend bool operator<(Relation a, Relation b) {
    return a.id_ != b.id_ && a.name() < b.name();
  }

 private:
  uint32_t id_ = 0;  // 0 is the empty name
};

}  // namespace wiclean

template <>
struct std::hash<wiclean::Relation> {
  size_t operator()(wiclean::Relation r) const noexcept { return r.id(); }
};

#endif  // WICLEAN_REVISION_RELATION_H_
