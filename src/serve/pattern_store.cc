#include "serve/pattern_store.h"

#include <bit>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/annotations.h"
#include "common/file_commit.h"
#include "common/hash.h"

namespace wiclean {

namespace {

// ---------------------------------------------------------------------------
// Primitive little-endian encoding. All multi-byte values are composed byte
// by byte — never memcpy'd into structs — so the format is host-endianness
// independent and the reader can bounds-check every access.
// ---------------------------------------------------------------------------

void AppendU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void AppendU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void AppendU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void AppendI64(std::string* out, int64_t v) {
  AppendU64(out, static_cast<uint64_t>(v));
}

void AppendF64(std::string* out, double v) {
  AppendU64(out, std::bit_cast<uint64_t>(v));
}

void AppendString(std::string* out, std::string_view s) {
  AppendU64(out, s.size());
  out->append(s.data(), s.size());
}

/// Bounds-checked sequential reader over an immutable byte span. Every Read*
/// returns a Status; once the underlying data is exhausted or malformed, the
/// caller propagates the error and no further bytes are touched.
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

  size_t remaining() const { return bytes_.size() - pos_; }
  size_t position() const { return pos_; }
  bool AtEnd() const { return pos_ == bytes_.size(); }

  [[nodiscard]] Status ReadU8(uint8_t* v) WC_UNTRUSTED {
    if (remaining() < 1) return Truncated("u8");
    *v = static_cast<uint8_t>(bytes_[pos_++]);
    return Status::OK();
  }

  [[nodiscard]] Status ReadU32(uint32_t* v) WC_UNTRUSTED {
    if (remaining() < 4) return Truncated("u32");
    uint32_t out = 0;
    for (int i = 0; i < 4; ++i) {
      out |= static_cast<uint32_t>(static_cast<uint8_t>(bytes_[pos_ + i]))
             << (8 * i);
    }
    pos_ += 4;
    *v = out;
    return Status::OK();
  }

  [[nodiscard]] Status ReadU64(uint64_t* v) WC_UNTRUSTED {
    if (remaining() < 8) return Truncated("u64");
    uint64_t out = 0;
    for (int i = 0; i < 8; ++i) {
      out |= static_cast<uint64_t>(static_cast<uint8_t>(bytes_[pos_ + i]))
             << (8 * i);
    }
    pos_ += 8;
    *v = out;
    return Status::OK();
  }

  [[nodiscard]] Status ReadI64(int64_t* v) WC_UNTRUSTED {
    uint64_t raw = 0;
    WICLEAN_RETURN_IF_ERROR(ReadU64(&raw));
    *v = static_cast<int64_t>(raw);
    return Status::OK();
  }

  [[nodiscard]] Status ReadF64(double* v) WC_UNTRUSTED {
    uint64_t raw = 0;
    WICLEAN_RETURN_IF_ERROR(ReadU64(&raw));
    *v = std::bit_cast<double>(raw);
    return Status::OK();
  }

  [[nodiscard]] Status ReadString(std::string* v) WC_UNTRUSTED {
    uint64_t size = 0;
    WICLEAN_RETURN_IF_ERROR(ReadU64(&size));
    // The length is untrusted: check against what is actually present before
    // allocating anything proportional to it.
    if (size > remaining()) return Truncated("string payload");
    v->assign(bytes_.data() + pos_, static_cast<size_t>(size));
    pos_ += static_cast<size_t>(size);
    return Status::OK();
  }

  [[nodiscard]] Status ReadSpan(size_t size, std::string_view* v)
      WC_UNTRUSTED WC_BORROWED_VIEW {
    if (size > remaining()) return Truncated("section payload");
    *v = bytes_.substr(pos_, size);
    pos_ += size;
    return Status::OK();
  }

 private:
  static Status Truncated(const char* what) {
    return Status::DataLoss(std::string("snapshot truncated reading ") + what);
  }

  std::string_view bytes_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Container framing.
// ---------------------------------------------------------------------------

constexpr char kMagic[4] = {'W', 'C', 'P', 'S'};
constexpr uint32_t kTagProvenance = 0x564f5250;  // "PROV" little-endian
constexpr uint32_t kTagPatterns = 0x53544150;    // "PATS"
// A valid file has exactly these two sections; anything else is corruption
// (the bound also stops a flipped section count from driving a long loop).
constexpr uint32_t kExpectedSections = 2;

void AppendSection(std::string* out, uint32_t tag, std::string_view payload) {
  AppendU32(out, tag);
  AppendU64(out, payload.size());
  AppendU32(out, Crc32(payload));
  out->append(payload.data(), payload.size());
}

// ---------------------------------------------------------------------------
// Section payloads.
// ---------------------------------------------------------------------------

void EncodeProvenance(const SnapshotProvenance& p, std::string* out) {
  AppendString(out, p.corpus_id);
  AppendString(out, p.tool);
  AppendI64(out, p.created_unix);
  AppendF64(out, p.frequency_threshold);
  AppendU32(out, static_cast<uint32_t>(p.max_abstraction_lift));
  AppendU64(out, p.max_pattern_actions);
  AppendU8(out, p.mine_relative ? 1 : 0);
}

Status DecodeProvenance(ByteReader* r, SnapshotProvenance* p) {
  WICLEAN_RETURN_IF_ERROR(r->ReadString(&p->corpus_id));
  WICLEAN_RETURN_IF_ERROR(r->ReadString(&p->tool));
  WICLEAN_RETURN_IF_ERROR(r->ReadI64(&p->created_unix));
  WICLEAN_RETURN_IF_ERROR(r->ReadF64(&p->frequency_threshold));
  uint32_t lift = 0;
  WICLEAN_RETURN_IF_ERROR(r->ReadU32(&lift));
  if (lift > 64) {
    return Status::DataLoss("snapshot provenance: implausible abstraction "
                            "lift " + std::to_string(lift));
  }
  p->max_abstraction_lift = static_cast<int32_t>(lift);
  WICLEAN_RETURN_IF_ERROR(r->ReadU64(&p->max_pattern_actions));
  uint8_t rel = 0;
  WICLEAN_RETURN_IF_ERROR(r->ReadU8(&rel));
  if (rel > 1) {
    return Status::DataLoss("snapshot provenance: boolean field out of range");
  }
  p->mine_relative = rel == 1;
  return Status::OK();
}

Status EncodePattern(const StoredPattern& sp, const TypeTaxonomy& taxonomy,
                     std::string* out) {
  const Pattern& p = sp.pattern;
  AppendU32(out, static_cast<uint32_t>(p.num_vars()));
  for (size_t v = 0; v < p.num_vars(); ++v) {
    TypeId t = p.var_type(static_cast<int>(v));
    if (!taxonomy.IsValid(t)) {
      return Status::InvalidArgument(
          "pattern references unknown type id " + std::to_string(t));
    }
    AppendString(out, taxonomy.Name(t));
    AppendI64(out, p.var_binding(static_cast<int>(v)));
  }
  AppendU32(out, static_cast<uint32_t>(p.source_var()));
  AppendU32(out, static_cast<uint32_t>(p.num_actions()));
  for (const AbstractAction& a : p.actions()) {
    AppendU8(out, a.op == EditOp::kAdd ? 0 : 1);
    AppendU32(out, static_cast<uint32_t>(a.source_var));
    AppendString(out, a.relation.name());
    AppendU32(out, static_cast<uint32_t>(a.target_var));
  }
  AppendI64(out, sp.window.begin);
  AppendI64(out, sp.window.end);
  AppendF64(out, sp.frequency);
  AppendU64(out, sp.support);
  AppendF64(out, sp.threshold);
  return Status::OK();
}

Status DecodePattern(ByteReader* r, const TypeTaxonomy& taxonomy,
                     StoredPattern* out) {
  Pattern p;
  uint32_t num_vars = 0;
  WICLEAN_RETURN_IF_ERROR(r->ReadU32(&num_vars));
  // Each variable occupies >= 16 bytes, so a count beyond remaining/16 is
  // corrupt; checking up front avoids looping on a wild count.
  if (num_vars == 0 || num_vars > r->remaining() / 16) {
    return Status::DataLoss("snapshot pattern: variable count out of range");
  }
  std::vector<EntityId> bindings;
  for (uint32_t v = 0; v < num_vars; ++v) {
    std::string type_name;
    WICLEAN_RETURN_IF_ERROR(r->ReadString(&type_name));
    Result<TypeId> type = taxonomy.Find(type_name);
    if (!type.ok()) {
      return Status::DataLoss("snapshot pattern references unknown type '" +
                              type_name + "'");
    }
    p.AddVar(*type);
    int64_t binding = 0;
    WICLEAN_RETURN_IF_ERROR(r->ReadI64(&binding));
    if (binding < kInvalidEntityId) {
      return Status::DataLoss("snapshot pattern: negative entity binding");
    }
    bindings.push_back(binding);
  }
  for (uint32_t v = 0; v < num_vars; ++v) {
    if (bindings[v] == kInvalidEntityId) continue;
    WICLEAN_RETURN_IF_ERROR(p.BindVar(static_cast<int>(v), bindings[v]));
  }
  uint32_t source_var = 0;
  WICLEAN_RETURN_IF_ERROR(r->ReadU32(&source_var));
  if (source_var >= num_vars) {
    return Status::DataLoss("snapshot pattern: source variable out of range");
  }
  WICLEAN_RETURN_IF_ERROR(p.SetSourceVar(static_cast<int>(source_var)));
  uint32_t num_actions = 0;
  WICLEAN_RETURN_IF_ERROR(r->ReadU32(&num_actions));
  if (num_actions == 0 || num_actions > r->remaining() / 17) {
    return Status::DataLoss("snapshot pattern: action count out of range");
  }
  for (uint32_t a = 0; a < num_actions; ++a) {
    uint8_t op = 0;
    uint32_t src = 0;
    uint32_t tgt = 0;
    std::string relation;
    WICLEAN_RETURN_IF_ERROR(r->ReadU8(&op));
    if (op > 1) return Status::DataLoss("snapshot pattern: bad edit op");
    WICLEAN_RETURN_IF_ERROR(r->ReadU32(&src));
    WICLEAN_RETURN_IF_ERROR(r->ReadString(&relation));
    WICLEAN_RETURN_IF_ERROR(r->ReadU32(&tgt));
    if (src >= num_vars || tgt >= num_vars) {
      return Status::DataLoss("snapshot pattern: action variable out of range");
    }
    WICLEAN_RETURN_IF_ERROR(p.AddAction(
        op == 0 ? EditOp::kAdd : EditOp::kRemove, static_cast<int>(src),
        relation, static_cast<int>(tgt)));
  }
  if (!p.IsConnected()) {
    return Status::DataLoss("snapshot pattern is not connected");
  }
  out->pattern = std::move(p);
  WICLEAN_RETURN_IF_ERROR(r->ReadI64(&out->window.begin));
  WICLEAN_RETURN_IF_ERROR(r->ReadI64(&out->window.end));
  if (out->window.begin >= out->window.end) {
    return Status::DataLoss("snapshot pattern: empty time window");
  }
  WICLEAN_RETURN_IF_ERROR(r->ReadF64(&out->frequency));
  if (!(out->frequency >= 0.0 && out->frequency <= 1.0)) {
    return Status::DataLoss("snapshot pattern: frequency outside [0, 1]");
  }
  uint64_t support = 0;
  WICLEAN_RETURN_IF_ERROR(r->ReadU64(&support));
  out->support = static_cast<size_t>(support);
  WICLEAN_RETURN_IF_ERROR(r->ReadF64(&out->threshold));
  if (!(out->threshold >= 0.0 && out->threshold <= 1.0)) {
    return Status::DataLoss("snapshot pattern: threshold outside [0, 1]");
  }
  return Status::OK();
}

Status EncodePatterns(const std::vector<StoredPattern>& patterns,
                      const TypeTaxonomy& taxonomy, std::string* out) {
  AppendU64(out, patterns.size());
  for (const StoredPattern& sp : patterns) {
    WICLEAN_RETURN_IF_ERROR(EncodePattern(sp, taxonomy, out));
  }
  return Status::OK();
}

Status DecodePatterns(ByteReader* r, const TypeTaxonomy& taxonomy,
                      std::vector<StoredPattern>* out) {
  uint64_t count = 0;
  WICLEAN_RETURN_IF_ERROR(r->ReadU64(&count));
  // Each pattern occupies >= 60 bytes; the count is untrusted, so bound it by
  // the bytes present instead of pre-reserving from it.
  if (count > r->remaining() / 60) {
    return Status::DataLoss("snapshot: pattern count out of range");
  }
  for (uint64_t i = 0; i < count; ++i) {
    StoredPattern sp;
    WICLEAN_RETURN_IF_ERROR(DecodePattern(r, taxonomy, &sp));
    out->push_back(std::move(sp));
  }
  if (!r->AtEnd()) {
    return Status::DataLoss("snapshot: trailing bytes after pattern section");
  }
  return Status::OK();
}

}  // namespace

Status EncodeSnapshot(const PatternSnapshot& snapshot,
                      const TypeTaxonomy& taxonomy, std::string* out) {
  out->clear();
  out->append(kMagic, sizeof(kMagic));
  AppendU32(out, kSnapshotFormatVersion);
  AppendU32(out, kExpectedSections);

  std::string provenance;
  EncodeProvenance(snapshot.provenance, &provenance);
  AppendSection(out, kTagProvenance, provenance);

  std::string patterns;
  WICLEAN_RETURN_IF_ERROR(
      EncodePatterns(snapshot.patterns, taxonomy, &patterns));
  AppendSection(out, kTagPatterns, patterns);
  return Status::OK();
}

Result<PatternSnapshot> DecodeSnapshot(std::string_view bytes,
                                       const TypeTaxonomy& taxonomy) {
  ByteReader reader(bytes);
  std::string_view magic;
  WICLEAN_RETURN_IF_ERROR(reader.ReadSpan(sizeof(kMagic), &magic));
  if (magic != std::string_view(kMagic, sizeof(kMagic))) {
    return Status::DataLoss("not a WCPS pattern snapshot (bad magic)");
  }
  uint32_t version = 0;
  WICLEAN_RETURN_IF_ERROR(reader.ReadU32(&version));
  if (version != kSnapshotFormatVersion) {
    return Status::DataLoss("unsupported snapshot format version " +
                            std::to_string(version));
  }
  uint32_t section_count = 0;
  WICLEAN_RETURN_IF_ERROR(reader.ReadU32(&section_count));
  if (section_count != kExpectedSections) {
    return Status::DataLoss("snapshot: unexpected section count " +
                            std::to_string(section_count));
  }

  PatternSnapshot snapshot;
  bool saw_provenance = false;
  bool saw_patterns = false;
  for (uint32_t s = 0; s < section_count; ++s) {
    uint32_t tag = 0;
    uint64_t size = 0;
    uint32_t crc = 0;
    WICLEAN_RETURN_IF_ERROR(reader.ReadU32(&tag));
    WICLEAN_RETURN_IF_ERROR(reader.ReadU64(&size));
    WICLEAN_RETURN_IF_ERROR(reader.ReadU32(&crc));
    std::string_view payload;
    WICLEAN_RETURN_IF_ERROR(
        reader.ReadSpan(static_cast<size_t>(size), &payload));
    if (Crc32(payload) != crc) {
      return Status::DataLoss("snapshot: section checksum mismatch");
    }
    ByteReader section(payload);
    if (tag == kTagProvenance && !saw_provenance) {
      saw_provenance = true;
      WICLEAN_RETURN_IF_ERROR(
          DecodeProvenance(&section, &snapshot.provenance));
      if (!section.AtEnd()) {
        return Status::DataLoss("snapshot: trailing provenance bytes");
      }
    } else if (tag == kTagPatterns && !saw_patterns) {
      saw_patterns = true;
      WICLEAN_RETURN_IF_ERROR(
          DecodePatterns(&section, taxonomy, &snapshot.patterns));
    } else {
      return Status::DataLoss("snapshot: unknown or duplicate section tag");
    }
  }
  if (!saw_provenance || !saw_patterns) {
    return Status::DataLoss("snapshot: missing required section");
  }
  if (!reader.AtEnd()) {
    return Status::DataLoss("snapshot: trailing bytes after last section");
  }
  return snapshot;
}

Status SaveSnapshotFile(const PatternSnapshot& snapshot,
                        const TypeTaxonomy& taxonomy,
                        const std::string& path) {
  std::string bytes;
  WICLEAN_RETURN_IF_ERROR(EncodeSnapshot(snapshot, taxonomy, &bytes));

  const std::string tmp_path = path + ".tmp";
  std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();
  if (!out) {
    std::remove(tmp_path.c_str());
    return Status::Internal("failed writing snapshot temp file " + tmp_path);
  }
  return CommitFile(tmp_path, path);
}

Result<PatternSnapshot> LoadSnapshotFile(const std::string& path,
                                         const TypeTaxonomy& taxonomy) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return Status::NotFound("cannot open snapshot file " + path);
  std::ostringstream contents;
  contents << file.rdbuf();
  if (file.bad()) {
    return Status::Internal("failed reading snapshot file " + path);
  }
  return DecodeSnapshot(contents.str(), taxonomy);
}

}  // namespace wiclean
