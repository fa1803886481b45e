#ifndef WICLEAN_COMMON_FILE_COMMIT_H_
#define WICLEAN_COMMON_FILE_COMMIT_H_

#include <string>

#include "common/status.h"

namespace wiclean {

/// Publishes the finished, closed file `tmp_path` (by convention
/// `path + ".tmp"`) as `path`, atomically and durably: fsyncs it, renames
/// it over `path`, then fsyncs the parent directory, so the rename itself
/// survives power loss. A reader of `path` sees the old file or the new
/// one, never a torn write; a crash before the commit leaves at most a
/// stale temp file next to an intact `path`. On any failure before the
/// rename, `tmp_path` is unlinked and `path` is left as it was.
[[nodiscard]] Status CommitFile(const std::string& tmp_path,
                                const std::string& path);

}  // namespace wiclean

#endif  // WICLEAN_COMMON_FILE_COMMIT_H_
