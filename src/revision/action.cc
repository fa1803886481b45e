#include "revision/action.h"

namespace wiclean {

std::string Action::ToString() const {
  std::string out = "(";
  out += op == EditOp::kAdd ? "+" : "-";
  out += ", (";
  out += std::to_string(subject);
  out += ", ";
  out += relation.name();
  out += ", ";
  out += std::to_string(object);
  out += "), t=";
  out += std::to_string(time);
  out += ")";
  return out;
}

}  // namespace wiclean
