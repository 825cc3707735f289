#include "support/jsonl.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>

#include "support/contracts.hpp"

namespace mcs::support {

namespace {

[[noreturn]] void io_error(const char* what, const std::filesystem::path& path,
                           int err) {
  throw std::runtime_error(std::string("jsonl: ") + what + " " +
                           path.string() + ": " + std::strerror(err));
}

/// The file's bytes; empty when it cannot be opened.
std::string read_all(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Cuts a torn final line off the file behind `fd`, back to just after
/// its last '\n'.  Returns the size kept.
off_t repair_tail(int fd, const std::filesystem::path& path) {
  struct stat st {};
  if (::fstat(fd, &st) != 0) io_error("cannot stat", path, errno);
  char last = '\n';
  if (st.st_size > 0 && ::pread(fd, &last, 1, st.st_size - 1) != 1) {
    io_error("cannot read", path, errno);
  }
  if (last == '\n') return st.st_size;
  // Torn: a crash artifact, so rereading the whole file here is fine.
  const std::size_t nl = read_all(path).rfind('\n');
  const auto keep = static_cast<off_t>(nl == std::string::npos ? 0 : nl + 1);
  if (::ftruncate(fd, keep) != 0) {
    io_error("cannot cut the torn tail of", path, errno);
  }
  return keep;
}

}  // namespace

JsonlContents read_jsonl(const std::filesystem::path& path) {
  JsonlContents out;
  const std::string text = read_all(path);  // missing log: no records yet
  std::size_t pos = 0;
  std::size_t line_no = 0;
  while (pos < text.size()) {
    const std::size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) {
      out.truncated_tail = true;  // killed mid-write
      break;
    }
    const std::string_view line(text.data() + pos, nl - pos);
    pos = nl + 1;
    ++line_no;
    if (line.empty()) continue;
    try {
      out.records.push_back(parse_json(line));
    } catch (const JsonError& e) {
      throw std::runtime_error(path.string() + " line " +
                               std::to_string(line_no) +
                               ": malformed record: " + e.what());
    }
  }
  return out;
}

JsonlAppender::JsonlAppender(const std::filesystem::path& path, bool truncate)
    : path_(path) {
  // O_APPEND: every write() lands at the current end of file, whole.
  int flags = O_RDWR | O_CREAT | O_APPEND;
  if (truncate) flags |= O_TRUNC;
  fd_ = ::open(path.c_str(), flags, 0644);
  if (fd_ < 0) io_error("cannot open", path, errno);
  try {
    fresh_ = repair_tail(fd_, path) == 0;
  } catch (...) {
    ::close(fd_);
    throw;
  }
}

JsonlAppender::~JsonlAppender() {
  if (fd_ >= 0) ::close(fd_);
}

void JsonlAppender::append(std::string_view line) {
  MCS_REQUIRE(line.find('\n') == std::string_view::npos,
              "a JSONL record must not contain a newline");
  std::string buf(line);
  buf.push_back('\n');
  const std::lock_guard<std::mutex> lock(mutex_);
  std::size_t written = 0;
  while (written < buf.size()) {
    const ssize_t n = ::write(fd_, buf.data() + written, buf.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      io_error("write failed for", path_, errno);
    }
    written += static_cast<std::size_t>(n);
  }
}

}  // namespace mcs::support
