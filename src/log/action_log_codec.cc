#include "log/action_log_codec.h"

#include <algorithm>

#include "common/annotations.h"
#include "common/hash.h"

namespace wiclean {
namespace {

// ---------------------------------------------------------------------------
// Primitive little-endian encoding, following serve/pattern_store.cc: fixed
// width values are composed byte by byte so the format is host-endianness
// independent. The lint raw-memcpy rule exempts this file, but it blits no
// bytes: the ops bitset is read bit by bit from the verified payload.
// ---------------------------------------------------------------------------

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

/// LEB128: 7 value bits per byte, high bit = continuation.
void AppendVarint(std::string* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

/// Maps signed to unsigned keeping small magnitudes small, so deltas of
/// either sign stay one varint byte.
uint64_t ZigZagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^
         static_cast<uint64_t>(v >> 63);
}

int64_t ZigZagDecode(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

/// Delta arithmetic wraps in two's complement: the delta between any two
/// int64 values, and the sum a corrupt delta produces on decode, are
/// defined, and adding back a wrapped delta restores the value.
int64_t WrappingSub(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) -
                              static_cast<uint64_t>(b));
}

int64_t WrappingAdd(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) +
                              static_cast<uint64_t>(b));
}

/// Bounds-checked sequential reader over an immutable byte span; every Read*
/// fails with DataLoss instead of touching bytes that are not there.
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

  size_t remaining() const { return bytes_.size() - pos_; }
  bool AtEnd() const { return pos_ == bytes_.size(); }

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

  [[nodiscard]] Status ReadVarint(uint64_t* v) WC_UNTRUSTED {
    if (NextVarint(v)) return Status::OK();
    return VarintError();
  }

  /// The column loops' varint read: false on failure, with VarintError()
  /// naming the cause, so a Status is built only when decoding fails.
  bool NextVarint(uint64_t* v) WC_UNTRUSTED {
    if (pos_ < bytes_.size()) {
      const uint8_t byte = static_cast<uint8_t>(bytes_[pos_]);
      if (byte < 0x80) {  // one byte: the common delta
        ++pos_;
        *v = byte;
        return true;
      }
    }
    return NextVarintSlow(v);
  }

  /// The error of the last failed NextVarint.
  Status VarintError() const {
    switch (varint_error_) {
      case VarintFault::kTruncated:
        return Truncated("varint");
      case VarintFault::kNonCanonical:
        return Status::DataLoss("action log: non-canonical varint");
      case VarintFault::kTooLong:
        break;
    }
    return Status::DataLoss("action log: varint longer than 10 bytes");
  }

  [[nodiscard]] Status ReadSpan(size_t size, std::string_view* v)
      WC_UNTRUSTED WC_BORROWED_VIEW {
    if (size > remaining()) return Truncated("byte span");
    *v = bytes_.substr(pos_, size);
    pos_ += size;
    return Status::OK();
  }

  /// Varint-length-prefixed string; the length is untrusted and checked
  /// against the bytes present before any allocation.
  [[nodiscard]] Status ReadLenString(std::string* v) WC_UNTRUSTED {
    uint64_t size = 0;
    WICLEAN_RETURN_IF_ERROR(ReadVarint(&size));
    if (size > remaining()) return Truncated("string payload");
    v->assign(bytes_.data() + pos_, static_cast<size_t>(size));
    pos_ += static_cast<size_t>(size);
    return Status::OK();
  }

 private:
  enum class VarintFault : uint8_t { kTruncated, kNonCanonical, kTooLong };

  bool NextVarintSlow(uint64_t* v) {
    uint64_t out = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      if (AtEnd()) return VarintFails(VarintFault::kTruncated);
      uint8_t byte = static_cast<uint8_t>(bytes_[pos_++]);
      out |= static_cast<uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) {
        // Reject non-canonical padding like 0x80 0x00 — the writer never
        // emits it, so accepting it would let distinct bytes decode equal.
        if (byte == 0 && shift != 0) {
          return VarintFails(VarintFault::kNonCanonical);
        }
        *v = out;
        return true;
      }
    }
    return VarintFails(VarintFault::kTooLong);
  }

  bool VarintFails(VarintFault fault) {
    varint_error_ = fault;
    return false;
  }

  static Status Truncated(const char* what) {
    return Status::DataLoss(std::string("action log truncated reading ") +
                            what);
  }

  std::string_view bytes_;
  size_t pos_ = 0;
  VarintFault varint_error_ = VarintFault::kTruncated;
};

void AppendLenString(std::string* out, std::string_view s) {
  AppendVarint(out, s.size());
  out->append(s.data(), s.size());
}

}  // namespace

void AppendActionLogSection(std::string* out, uint32_t tag,
                            std::string_view payload) {
  AppendU32(out, tag);
  AppendU64(out, payload.size());
  AppendU32(out, Crc32(payload));
  out->append(payload.data(), payload.size());
}

Status ReadActionLogSection(std::string_view bytes, uint64_t offset,
                            uint32_t expected_tag, std::string_view* payload,
                            uint64_t* end) {
  if (offset > bytes.size() ||
      bytes.size() - offset < kSectionHeaderSize) {
    return Status::DataLoss("action log truncated reading section header");
  }
  ByteReader r(bytes.substr(static_cast<size_t>(offset)));
  uint32_t tag = 0;
  uint64_t size = 0;
  uint32_t crc = 0;
  WICLEAN_RETURN_IF_ERROR(r.ReadU32(&tag));
  if (tag != expected_tag) {
    return Status::DataLoss("action log: unexpected section tag " +
                            std::to_string(tag));
  }
  WICLEAN_RETURN_IF_ERROR(r.ReadU64(&size));
  if (size > r.remaining()) {
    return Status::DataLoss("action log: section overruns the file");
  }
  WICLEAN_RETURN_IF_ERROR(r.ReadU32(&crc));
  WICLEAN_RETURN_IF_ERROR(r.ReadSpan(static_cast<size_t>(size), payload));
  if (Crc32(*payload) != crc) {
    return Status::DataLoss("action log: section CRC mismatch");
  }
  if (end != nullptr) *end = offset + kSectionHeaderSize + size;
  return Status::OK();
}

BlockMeta EncodeBlockPayload(const std::vector<Action>& actions,
                             std::vector<Relation>* dictionary,
                             std::unordered_map<Relation, uint32_t>* ids,
                             std::string* out) {
  BlockMeta meta;
  meta.action_count = actions.size();
  meta.min_subject = actions.front().subject;
  meta.max_subject = actions.front().subject;
  for (const Action& a : actions) {
    meta.min_subject = std::min(meta.min_subject, a.subject);
    meta.max_subject = std::max(meta.max_subject, a.subject);
  }

  // Intern unseen relations; the delta is exactly the dictionary suffix
  // this block contributes.
  const uint32_t dict_base = static_cast<uint32_t>(dictionary->size());
  std::vector<uint32_t> relation_ids;
  relation_ids.reserve(actions.size());
  for (const Action& a : actions) {
    auto [it, inserted] =
        ids->emplace(a.relation, static_cast<uint32_t>(dictionary->size()));
    if (inserted) dictionary->push_back(a.relation);
    relation_ids.push_back(it->second);
  }

  AppendI64(out, meta.min_subject);
  AppendI64(out, meta.max_subject);
  AppendU32(out, static_cast<uint32_t>(actions.size()));
  AppendU32(out, dict_base);
  AppendU32(out, static_cast<uint32_t>(dictionary->size()) - dict_base);
  for (size_t i = dict_base; i < dictionary->size(); ++i) {
    AppendLenString(out, (*dictionary)[i].name());
  }

  std::vector<uint8_t> ops((actions.size() + 7) / 8, 0);
  for (size_t i = 0; i < actions.size(); ++i) {
    if (actions[i].op == EditOp::kRemove) ops[i / 8] |= uint8_t{1} << (i % 8);
  }
  out->append(reinterpret_cast<const char*>(ops.data()), ops.size());

  EntityId prev_subject = meta.min_subject;
  for (const Action& a : actions) {
    AppendVarint(out, ZigZagEncode(WrappingSub(a.subject, prev_subject)));
    prev_subject = a.subject;
  }
  for (uint32_t id : relation_ids) AppendVarint(out, id);
  for (const Action& a : actions) AppendVarint(out, ZigZagEncode(a.object));
  Timestamp prev_time = 0;
  for (const Action& a : actions) {
    AppendVarint(out, ZigZagEncode(WrappingSub(a.time, prev_time)));
    prev_time = a.time;
  }
  return meta;
}

Status DecodeBlockPayload(std::string_view payload,
                          std::span<const Relation> relations,
                          const BlockMeta* meta, std::vector<Action>* out) {
  ByteReader r(payload);
  EntityId min_subject = 0;
  EntityId max_subject = 0;
  uint32_t count = 0;
  uint32_t dict_base = 0;
  uint32_t delta_count = 0;
  WICLEAN_RETURN_IF_ERROR(r.ReadI64(&min_subject));
  WICLEAN_RETURN_IF_ERROR(r.ReadI64(&max_subject));
  WICLEAN_RETURN_IF_ERROR(r.ReadU32(&count));
  WICLEAN_RETURN_IF_ERROR(r.ReadU32(&dict_base));
  WICLEAN_RETURN_IF_ERROR(r.ReadU32(&delta_count));
  if (min_subject > max_subject) {
    return Status::DataLoss("action log block: inverted subject span");
  }
  if (count == 0) {
    return Status::DataLoss("action log block: empty block");
  }
  // Untrusted-count guard: every action costs at least 4 varint bytes, so a
  // count above remaining/4 cannot be satisfied — reject before reserving.
  if (count > r.remaining() / 4) {
    return Status::DataLoss("action log block: action count exceeds payload");
  }
  if (meta != nullptr &&
      (min_subject != meta->min_subject || max_subject != meta->max_subject ||
       count != meta->action_count)) {
    return Status::DataLoss(
        "action log block: header disagrees with the index entry");
  }
  // The block's interning must be a prefix-consistent view of the full
  // dictionary: its delta is exactly relations[dict_base, dict_base+delta).
  if (dict_base > relations.size() || delta_count > relations.size() ||
      static_cast<size_t>(dict_base) + delta_count > relations.size()) {
    return Status::DataLoss(
        "action log block: dictionary delta outside the index dictionary");
  }
  std::string delta;
  for (uint32_t i = 0; i < delta_count; ++i) {
    WICLEAN_RETURN_IF_ERROR(r.ReadLenString(&delta));
    if (delta != relations[dict_base + i].name()) {
      return Status::DataLoss(
          "action log block: dictionary delta disagrees with the index");
    }
  }
  const uint32_t dict_end = dict_base + delta_count;

  std::string_view ops;
  WICLEAN_RETURN_IF_ERROR(
      r.ReadSpan((static_cast<size_t>(count) + 7) / 8, &ops));

  // Each column decodes straight into the Action fields of the appended
  // range; any failure truncates *out back to its entry size.
  const size_t base = out->size();
  out->resize(base + count);
  std::span<Action> actions(out->data() + base, count);
  const auto fail = [&](Status status) {
    out->resize(base);
    return status;
  };
  for (uint32_t i = 0; i < count; ++i) {
    actions[i].op = (static_cast<uint8_t>(ops[i / 8]) >> (i % 8)) & 1
                        ? EditOp::kRemove
                        : EditOp::kAdd;
  }
  uint64_t raw = 0;
  EntityId prev_subject = min_subject;
  for (Action& a : actions) {
    if (!r.NextVarint(&raw)) return fail(r.VarintError());
    prev_subject = WrappingAdd(prev_subject, ZigZagDecode(raw));
    if (prev_subject < min_subject || prev_subject > max_subject) {
      return fail(Status::DataLoss(
          "action log block: subject outside the declared span"));
    }
    a.subject = prev_subject;
  }
  for (Action& a : actions) {
    if (!r.NextVarint(&raw)) return fail(r.VarintError());
    if (raw >= dict_end) {
      return fail(Status::DataLoss(
          "action log block: relation id beyond the dictionary"));
    }
    a.relation = relations[raw];
  }
  for (Action& a : actions) {
    if (!r.NextVarint(&raw)) return fail(r.VarintError());
    a.object = ZigZagDecode(raw);
  }
  Timestamp prev_time = 0;
  for (Action& a : actions) {
    if (!r.NextVarint(&raw)) return fail(r.VarintError());
    prev_time = WrappingAdd(prev_time, ZigZagDecode(raw));
    a.time = prev_time;
  }
  if (!r.AtEnd()) {
    return fail(
        Status::DataLoss("action log block: trailing bytes after columns"));
  }
  return Status::OK();
}

void EncodeIndexPayload(const ActionLogIndex& index, std::string* out) {
  AppendU64(out, index.blocks.size());
  for (const BlockMeta& b : index.blocks) {
    AppendU64(out, b.offset);
    AppendI64(out, b.min_subject);
    AppendI64(out, b.max_subject);
    AppendU64(out, b.action_count);
  }
  AppendU64(out, index.total_actions);
  AppendU64(out, index.relations.size());
  for (Relation rel : index.relations) AppendLenString(out, rel.name());
}

Status DecodeIndexPayload(std::string_view payload, ActionLogIndex* index) {
  ByteReader r(payload);
  uint64_t block_count = 0;
  WICLEAN_RETURN_IF_ERROR(r.ReadU64(&block_count));
  // Untrusted count: each entry is 32 fixed bytes.
  if (block_count > r.remaining() / 32) {
    return Status::DataLoss("action log index: block table exceeds payload");
  }
  index->blocks.clear();
  index->blocks.reserve(static_cast<size_t>(block_count));
  uint64_t running_actions = 0;
  uint64_t prev_end = kActionLogHeaderSize;
  for (uint64_t i = 0; i < block_count; ++i) {
    BlockMeta meta;
    WICLEAN_RETURN_IF_ERROR(r.ReadU64(&meta.offset));
    WICLEAN_RETURN_IF_ERROR(r.ReadI64(&meta.min_subject));
    WICLEAN_RETURN_IF_ERROR(r.ReadI64(&meta.max_subject));
    WICLEAN_RETURN_IF_ERROR(r.ReadU64(&meta.action_count));
    if (meta.offset < prev_end) {
      return Status::DataLoss(
          "action log index: block offsets overlap or precede the header");
    }
    if (meta.min_subject > meta.max_subject || meta.action_count == 0) {
      return Status::DataLoss("action log index: implausible block entry");
    }
    prev_end = meta.offset + kSectionHeaderSize;  // payload size unknown here
    running_actions += meta.action_count;
    index->blocks.push_back(meta);
  }
  WICLEAN_RETURN_IF_ERROR(r.ReadU64(&index->total_actions));
  if (index->total_actions != running_actions) {
    return Status::DataLoss(
        "action log index: total_actions disagrees with the block table");
  }
  uint64_t relation_count = 0;
  WICLEAN_RETURN_IF_ERROR(r.ReadU64(&relation_count));
  // Untrusted count: a relation costs at least its 1-byte length prefix.
  if (relation_count > r.remaining()) {
    return Status::DataLoss("action log index: dictionary exceeds payload");
  }
  index->relations.clear();
  index->relations.reserve(static_cast<size_t>(relation_count));
  std::string rel;
  for (uint64_t i = 0; i < relation_count; ++i) {
    WICLEAN_RETURN_IF_ERROR(r.ReadLenString(&rel));
    index->relations.emplace_back(rel);
  }
  if (!r.AtEnd()) {
    return Status::DataLoss("action log index: trailing bytes");
  }
  return Status::OK();
}

}  // namespace wiclean
