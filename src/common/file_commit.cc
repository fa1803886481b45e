#include "common/file_commit.h"

#include <fcntl.h>
#include <unistd.h>

namespace wiclean {

Status CommitFile(const std::string& tmp_path, const std::string& path) {
  const int fd = ::open(tmp_path.c_str(), O_WRONLY);
  if (fd < 0) {
    ::unlink(tmp_path.c_str());
    return Status::Internal("cannot open temp file " + tmp_path);
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    ::unlink(tmp_path.c_str());
    return Status::Internal("failed syncing temp file " + tmp_path);
  }
  if (::close(fd) != 0) {
    ::unlink(tmp_path.c_str());
    return Status::Internal("failed closing temp file " + tmp_path);
  }
  if (::rename(tmp_path.c_str(), path.c_str()) != 0) {
    ::unlink(tmp_path.c_str());
    return Status::Internal("failed publishing file " + path);
  }
  const size_t slash = path.find_last_of('/');
  const std::string dir_path =
      slash == std::string::npos ? "." : path.substr(0, slash + 1);
  const int dir_fd = ::open(dir_path.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd < 0) {
    return Status::Internal("cannot open directory " + dir_path +
                            " to sync the publish");
  }
  const int synced = ::fsync(dir_fd);
  ::close(dir_fd);
  if (synced != 0) {
    return Status::Internal("failed syncing directory " + dir_path);
  }
  return Status::OK();
}

}  // namespace wiclean
