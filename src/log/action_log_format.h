#ifndef WICLEAN_LOG_ACTION_LOG_FORMAT_H_
#define WICLEAN_LOG_ACTION_LOG_FORMAT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "revision/action.h"

namespace wiclean {

/// WCAL — the WiClean binary action log. A seekable, replayable artifact of
/// the expensive half of ingestion: the XML parse/diff runs once (`wiclean
/// ingest`), and every later mine/detect/pack run replays the recovered
/// actions straight into a RevisionStore, skipping wikitext entirely.
///
/// Layout (all integers little-endian, composed byte by byte — the WCPS
/// container conventions from serve/pattern_store.cc):
///
///   header  := "WCAL" magic (4B) + u32 version
///   block*  := u32 tag "BLOK" + u64 payload_size + u32 crc32(payload)
///              + payload (see below)
///   index   := u32 tag "INDX" + u64 payload_size + u32 crc32(payload)
///              + payload (block table + full relation dictionary)
///   trailer := u64 index_offset + "LACW" magic (4B)   — fixed 12 bytes
///
/// A reader seeks to the trailer (last 12 bytes), jumps to the index, and
/// from there can decode any block independently: the index carries the
/// *full* interned-relation dictionary, while each block additionally
/// records its dictionary delta (the relations first seen in that block)
/// so sequential recovery and cross-validation are possible without the
/// index.
///
/// Block payload — columnar, one column per Action field:
///
///   i64 min_subject, i64 max_subject      — page-id span (block skip key)
///   u32 action_count
///   u32 dict_base                          — dictionary size at block start
///   u32 dict_delta_count + that many varint-length-prefixed strings
///   ops bitset, ceil(action_count/8) bytes — bit set ⇒ EditOp::kRemove
///   action_count x varint zigzag(subject delta vs previous; first vs
///       min_subject)
///   action_count x varint relation id (index into the dictionary as of this
///       block's end; must be < dict_base + dict_delta_count)
///   action_count x varint zigzag(object)
///   action_count x varint zigzag(time delta vs previous; first vs 0)
///
/// Index payload:
///
///   u64 block_count + per block { u64 offset, i64 min_subject,
///       i64 max_subject, u64 action_count }
///   u64 total_actions
///   u64 relation_count + that many varint-length-prefixed strings
inline constexpr char kActionLogMagic[4] = {'W', 'C', 'A', 'L'};
inline constexpr char kActionLogTrailerMagic[4] = {'L', 'A', 'C', 'W'};
inline constexpr uint32_t kActionLogVersion = 1;
inline constexpr uint32_t kTagBlock = 0x4b4f4c42;  // "BLOK" little-endian
inline constexpr uint32_t kTagIndex = 0x58444e49;  // "INDX"

/// header = magic + version; trailer = index offset + reversed magic.
inline constexpr size_t kActionLogHeaderSize = 4 + 4;
inline constexpr size_t kActionLogTrailerSize = 8 + 4;

/// Per-section framing overhead: tag + payload size + payload CRC.
inline constexpr size_t kSectionHeaderSize = 4 + 8 + 4;

/// One block's entry in the index: where it sits and what it spans. The
/// subject span is the seek key — a selective replay skips any block whose
/// [min_subject, max_subject] misses the wanted range without touching its
/// payload bytes.
struct BlockMeta {
  uint64_t offset = 0;  // file offset of the block's section header
  EntityId min_subject = 0;
  EntityId max_subject = 0;
  uint64_t action_count = 0;
};

/// The decoded index section: the block table plus the full relation
/// dictionary (dictionary id -> relation, ids assigned in first-seen order
/// across the whole log). Decoding interns each name once.
struct ActionLogIndex {
  std::vector<BlockMeta> blocks;
  uint64_t total_actions = 0;
  std::vector<Relation> relations;
};

}  // namespace wiclean

#endif  // WICLEAN_LOG_ACTION_LOG_FORMAT_H_
