#ifndef WICLEAN_LOG_ACTION_LOG_CODEC_H_
#define WICLEAN_LOG_ACTION_LOG_CODEC_H_

#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/annotations.h"
#include "common/result.h"
#include "log/action_log_format.h"
#include "revision/action.h"

namespace wiclean {

/// WCAL wire codec: block/index payload encode + decode and the shared
/// tag/size/CRC section framing. Encoding is infallible; every decode path
/// is a bounds-checked [[nodiscard]] Status walk over untrusted bytes —
/// lengths and counts are validated against the bytes actually present
/// before anything proportional to them is allocated.

/// Appends one framed section (tag + u64 payload size + u32 crc32(payload)
/// + payload) to *out.
void AppendActionLogSection(std::string* out, uint32_t tag,
                            std::string_view payload);

/// Peels the framed section starting at byte `offset` of `bytes`: verifies
/// the tag is `expected_tag`, the declared size fits, and the payload CRC
/// matches. On success *payload views the payload (zero-copy into `bytes`)
/// and *end is the offset one past the section.
[[nodiscard]] Status ReadActionLogSection(std::string_view bytes,
                                          uint64_t offset,
                                          uint32_t expected_tag,
                                          std::string_view* payload,
                                          uint64_t* end)
    WC_UNTRUSTED WC_BORROWED_VIEW;

/// Encodes one block payload for `actions` (must be non-empty), giving
/// relations not yet in `ids` the next dictionary id by appending them to
/// *dictionary. Returns the block's metadata with offset = 0 (the writer
/// fills in the real file offset when framing the section).
BlockMeta EncodeBlockPayload(const std::vector<Action>& actions,
                             std::vector<Relation>* dictionary,
                             std::unordered_map<Relation, uint32_t>* ids,
                             std::string* out);

/// Decodes a (CRC-verified) block payload, appending its actions to *out.
/// `relations` is the full dictionary from the index; the block's own
/// dictionary delta is cross-checked against it, so a block whose interning
/// disagrees with the index fails cleanly instead of mislabeling actions.
/// When `meta` is non-null, the block's span/count header must match it.
/// Each column decodes straight into the appended Actions; on failure *out
/// is truncated back to its entry size, so it is left unchanged.
[[nodiscard]] Status DecodeBlockPayload(std::string_view payload,
                                        std::span<const Relation> relations,
                                        const BlockMeta* meta,
                                        std::vector<Action>* out) WC_UNTRUSTED;

/// Encodes the index payload (block table + totals + full dictionary).
void EncodeIndexPayload(const ActionLogIndex& index, std::string* out);

/// Decodes a (CRC-verified) index payload.
[[nodiscard]] Status DecodeIndexPayload(std::string_view payload,
                                        ActionLogIndex* index) WC_UNTRUSTED;

}  // namespace wiclean

#endif  // WICLEAN_LOG_ACTION_LOG_CODEC_H_
