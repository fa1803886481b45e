#ifndef WICLEAN_LOG_ACTION_LOG_READER_H_
#define WICLEAN_LOG_ACTION_LOG_READER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/annotations.h"
#include "common/result.h"
#include "log/action_log_format.h"

namespace wiclean {

/// Read-only memory mapping of a whole file. Move-only RAII wrapper: the
/// mapping lives until destruction, and bytes() views it zero-copy.
class MmapFile {
 public:
  MmapFile() = default;
  ~MmapFile();
  MmapFile(MmapFile&& other) noexcept;
  MmapFile& operator=(MmapFile&& other) noexcept;
  MmapFile(const MmapFile&) = delete;
  MmapFile& operator=(const MmapFile&) = delete;

  /// Maps `path` read-only. Fails with NotFound when it cannot be opened and
  /// Internal when the mapping itself fails. Empty files map to an empty
  /// span without a kernel mapping.
  static Result<MmapFile> Open(const std::string& path);

  std::string_view bytes() const WC_UNTRUSTED WC_BORROWED_VIEW {
    return std::string_view(static_cast<const char*>(data_), size_);
  }

 private:
  void* data_ = nullptr;
  size_t size_ = 0;
};

/// Zero-copy WCAL reader. Open validates the header, trailer, and index
/// (CRC-checked) once; afterwards any block can be decoded independently in
/// any order — DecodeBlock is const and touches only immutable mapped bytes,
/// so concurrent decodes of distinct (or identical) blocks are safe. That
/// is what lets the replay fan block decoding across a thread pool.
///
/// Every access path is bounds-checked against the mapped span and returns
/// Status; no byte of an untrusted file is trusted past its CRC.
class ActionLogReader {
 public:
  /// Maps `path` and validates the container frame. The mapping is owned by
  /// the returned reader.
  static Result<ActionLogReader> OpenFile(const std::string& path);

  /// Validates over caller-owned bytes (tests, fuzzing); `bytes` must
  /// outlive the reader.
  static Result<ActionLogReader> FromBytes(std::string_view bytes);

  size_t num_blocks() const { return index_.blocks.size(); }
  const BlockMeta& block(size_t i) const { return index_.blocks[i]; }
  uint64_t total_actions() const { return index_.total_actions; }

  /// The full relation dictionary, in dictionary id order.
  const std::vector<Relation>& relations() const {
    return index_.relations;
  }

  /// Decodes block `i` (CRC-verified, cross-checked against its index
  /// entry), appending its actions to *out in log order.
  [[nodiscard]] Status DecodeBlock(size_t i, std::vector<Action>* out) const
      WC_UNTRUSTED;

  /// The raw framed bytes of block `i` (section header + payload), for the
  /// quarantine channel. Fails when the index entry runs past the file.
  [[nodiscard]] Result<std::string_view> BlockRawBytes(size_t i) const
      WC_UNTRUSTED WC_BORROWED_VIEW;

 private:
  ActionLogReader() = default;

  [[nodiscard]] Status Validate();

  MmapFile file_;  // empty for FromBytes readers
  std::string_view bytes_ WC_UNTRUSTED;
  ActionLogIndex index_;
};

}  // namespace wiclean

#endif  // WICLEAN_LOG_ACTION_LOG_READER_H_
