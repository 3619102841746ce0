#include "util/file.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>

namespace lv::util {

std::optional<std::string> read_file(const std::string& path,
                                     ReadFailure* failure) {
  const auto fail = [failure](ReadFailure why) {
    if (failure != nullptr) *failure = why;
    return std::nullopt;
  };
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return fail(ReadFailure::open);
  // Sized from the file, plus one byte so the read that meets end of
  // file needs no growth: a regular file takes one read() and the EOF
  // read. A pipe or a file that grows takes the doubling below.
  struct stat st {};
  std::string text(
      ::fstat(fd, &st) == 0 && st.st_size > 0
          ? static_cast<std::size_t>(st.st_size) + 1
          : std::size_t{4096},
      '\0');
  std::size_t size = 0;
  for (;;) {
    if (size == text.size()) text.resize(2 * size);
    const ssize_t n = ::read(fd, text.data() + size, text.size() - size);
    if (n > 0) {
      size += static_cast<std::size_t>(n);
    } else if (n == 0) {
      break;
    } else if (errno != EINTR) {
      ::close(fd);
      return fail(ReadFailure::read);
    }
  }
  ::close(fd);
  text.resize(size);
  if (failure != nullptr) *failure = ReadFailure::none;
  return text;
}

}  // namespace lv::util
