#include "dump/alignment.h"

#include <string>

#include "common/strings.h"

namespace wiclean {
namespace {

/// Reads logical lines, skipping blanks and '#' comments; reports 1-based
/// line numbers for errors.
template <typename Fn>
Status ForEachLine(std::istream* in, Fn&& fn) {
  std::string line;
  size_t line_number = 0;
  while (std::getline(*in, line)) {
    ++line_number;
    std::string_view trimmed = StripWhitespace(line);
    if (trimmed.empty() || trimmed[0] == '#') continue;
    WICLEAN_RETURN_IF_ERROR(fn(trimmed, line_number));
  }
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<TypeTaxonomy>> LoadTaxonomy(std::istream* in) {
  auto taxonomy = std::make_unique<TypeTaxonomy>();
  Status status = ForEachLine(in, [&](std::string_view line,
                                      size_t line_number) -> Status {
    std::vector<std::string> parts = SplitString(line, '\t');
    std::string name(StripWhitespace(parts[0]));
    if (name.empty()) {
      return Status::Corruption("taxonomy line " +
                                std::to_string(line_number) + ": empty type");
    }
    if (parts.size() == 1) {
      Result<TypeId> root = taxonomy->AddRoot(name);
      if (!root.ok()) {
        return Status::Corruption("taxonomy line " +
                                  std::to_string(line_number) + ": " +
                                  root.status().message());
      }
      return Status::OK();
    }
    std::string parent_name(StripWhitespace(parts[1]));
    Result<TypeId> parent = taxonomy->Find(parent_name);
    if (!parent.ok()) {
      return Status::Corruption(
          "taxonomy line " + std::to_string(line_number) +
          ": unknown parent '" + parent_name + "' (parents must be listed "
          "before children)");
    }
    Result<TypeId> added = taxonomy->AddType(name, *parent);
    if (!added.ok()) {
      return Status::Corruption("taxonomy line " +
                                std::to_string(line_number) + ": " +
                                added.status().message());
    }
    return Status::OK();
  });
  if (!status.ok()) return status;
  if (taxonomy->num_types() == 0) {
    return Status::Corruption("taxonomy file contains no types");
  }
  return taxonomy;
}

Status WriteTaxonomy(const TypeTaxonomy& taxonomy, std::ostream* out) {
  (*out) << "# type\tparent\n";
  for (TypeId t = 0; static_cast<size_t>(t) < taxonomy.num_types(); ++t) {
    (*out) << taxonomy.Name(t);
    if (taxonomy.Parent(t) != kInvalidTypeId) {
      (*out) << '\t' << taxonomy.Name(taxonomy.Parent(t));
    }
    (*out) << '\n';
  }
  out->flush();
  if (!out->good()) {
    return Status::Internal("taxonomy write failed (stream error)");
  }
  return Status::OK();
}

Result<std::unique_ptr<EntityRegistry>> LoadAlignment(
    std::istream* in, const TypeTaxonomy* taxonomy) {
  auto registry = std::make_unique<EntityRegistry>(taxonomy);
  // Alignment files list entities grouped by type, so most lines repeat the
  // previous line's type: keep its lookup.
  std::string last_type_name;
  TypeId last_type = kInvalidTypeId;
  Status status = ForEachLine(in, [&](std::string_view line,
                                      size_t line_number) -> Status {
    // Fields: title, type, then anything (ignored), tab-separated.
    const size_t tab = line.find('\t');
    if (tab == std::string_view::npos) {
      return Status::Corruption("alignment line " +
                                std::to_string(line_number) +
                                ": expected 'title<TAB>type'");
    }
    const std::string_view rest = line.substr(tab + 1);
    const std::string_view type_name =
        StripWhitespace(rest.substr(0, rest.find('\t')));
    if (last_type == kInvalidTypeId || type_name != last_type_name) {
      Result<TypeId> type = taxonomy->Find(type_name);
      if (!type.ok()) {
        return Status::Corruption("alignment line " +
                                  std::to_string(line_number) +
                                  ": unknown type '" + std::string(type_name) +
                                  "'");
      }
      last_type_name.assign(type_name);
      last_type = *type;
    }
    Result<EntityId> added = registry->Register(
        std::string(StripWhitespace(line.substr(0, tab))), last_type);
    if (!added.ok()) {
      return Status::Corruption("alignment line " +
                                std::to_string(line_number) + ": " +
                                added.status().message());
    }
    return Status::OK();
  });
  if (!status.ok()) return status;
  return registry;
}

Status WriteAlignment(const EntityRegistry& registry, std::ostream* out) {
  (*out) << "# title\ttype\n";
  for (size_t i = 0; i < registry.size(); ++i) {
    const Entity& e = registry.Get(static_cast<EntityId>(i));
    (*out) << e.name << '\t' << registry.taxonomy().Name(e.type) << '\n';
  }
  out->flush();
  if (!out->good()) {
    return Status::Internal("alignment write failed (stream error)");
  }
  return Status::OK();
}

}  // namespace wiclean
