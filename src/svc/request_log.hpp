// Crash-safe JSONL request log for the admission-control service
// (schema "mcs-svc-log-v1", docs/SERVICE.md §Request log).
//
// A schema mapping over support/jsonl.hpp, which owns the crash-safety
// rules.  The first line of a fresh log is a header; every later line
// records one request/response exchange with the *raw* wire text of both
// sides, so an offline tool can re-derive any verdict by replaying the
// request against a fresh service:
//
//   {"schema":"mcs-svc-log-v1"}
//   {"seq":0,"request":"{\"op\":\"analyze\",...}","response":"{\"ok\":true,...}"}
#pragma once

#include <cstdint>
#include <filesystem>
#include <mutex>
#include <string>
#include <vector>

#include "support/jsonl.hpp"

namespace mcs::svc {

/// One request/response exchange, raw wire text of both lines.
struct RequestLogRecord {
  std::uint64_t seq = 0;  ///< per-process ordering; restarts reset to 0
  std::string request;
  std::string response;
};

/// Order-preserving content of one log file.
struct RequestLogContents {
  bool has_header = false;
  std::vector<RequestLogRecord> records;
  /// True when the file ended in a partial line (crash artifact, dropped).
  bool truncated_tail = false;
};

/// Reads a request log.  A missing file yields empty contents; a partial
/// trailing line is dropped (see truncated_tail); a malformed *complete*
/// line throws std::runtime_error.
RequestLogContents read_request_log(const std::filesystem::path& path);

/// Append-only log writer.  Thread-safe: concurrent appends interleave at
/// line granularity, in sequence-number order.
class RequestLogWriter {
 public:
  /// Opens (creating if needed) `path` for appending; writes the schema
  /// header when the file is fresh.  Throws std::runtime_error when the
  /// file cannot be opened.
  RequestLogWriter(const std::filesystem::path& path, bool truncate);

  /// Appends one exchange; returns the sequence number it was assigned.
  std::uint64_t append(const std::string& request, const std::string& response);

 private:
  support::JsonlAppender log_;
  std::mutex mutex_;  ///< keeps sequence numbers in file order
  std::uint64_t next_seq_ = 0;
};

}  // namespace mcs::svc
