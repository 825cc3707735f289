// Crash-safe append-only JSONL files, the framing under the sweep result
// log (exp/sweep_log.hpp) and the service request log (svc/request_log.hpp).
// A SIGKILL at any instant leaves a readable log:
//  * a line is a record only when newline-terminated, and each record is
//    one append-mode write() of the whole line, so a kill leaves at most one
//    unterminated fragment at the end, which the reader drops;
//  * opening without truncation first cuts that fragment back to just after
//    the last '\n', so the next record starts a line of its own.
#pragma once

#include <filesystem>
#include <mutex>
#include <string_view>
#include <vector>

#include "support/json.hpp"

namespace mcs::support {

/// The complete records of one JSONL file, in file order.
struct JsonlContents {
  std::vector<Json> records;
  bool truncated_tail = false;  ///< ended in an unterminated line (dropped)
};

/// Reads a JSONL file.  A missing file yields empty contents; blank lines
/// are skipped; a malformed complete line is corruption, not a crash
/// artifact, and throws std::runtime_error naming the file and line.
JsonlContents read_jsonl(const std::filesystem::path& path);

/// Thread-safe append-only JSONL writer.
class JsonlAppender {
 public:
  /// Opens (creating if needed) `path` for appending.  `truncate` discards
  /// existing content; otherwise a torn final line is cut off.  Throws
  /// std::runtime_error on I/O failure.
  JsonlAppender(const std::filesystem::path& path, bool truncate);
  ~JsonlAppender();

  JsonlAppender(const JsonlAppender&) = delete;
  JsonlAppender& operator=(const JsonlAppender&) = delete;

  /// True when the file was empty once opened: the caller writes its schema
  /// header then.
  bool fresh() const noexcept { return fresh_; }

  /// Appends `line` (which must hold no newline) and a '\n' with one
  /// write(), retried on EINTR and short writes.
  void append(std::string_view line);

 private:
  int fd_ = -1;
  bool fresh_ = true;
  std::filesystem::path path_;
  std::mutex mutex_;
};

}  // namespace mcs::support
