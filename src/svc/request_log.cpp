#include "svc/request_log.hpp"

#include <stdexcept>
#include <utility>

#include "support/json.hpp"

namespace mcs::svc {

namespace {

constexpr const char* kSchema = "mcs-svc-log-v1";

}  // namespace

RequestLogContents read_request_log(const std::filesystem::path& path) {
  const support::JsonlContents lines = support::read_jsonl(path);
  RequestLogContents out;
  out.truncated_tail = lines.truncated_tail;
  for (const support::Json& value : lines.records) {
    const support::Json* schema = value.find("schema");
    if (schema != nullptr && &value == &lines.records.front()) {
      if (!schema->is_string() || schema->as_string() != kSchema) {
        throw std::runtime_error("request log " + path.string() +
                                 ": unexpected schema");
      }
      out.has_header = true;
      continue;
    }
    const support::Json* seq = value.find("seq");
    const support::Json* request = value.find("request");
    const support::Json* response = value.find("response");
    if (seq == nullptr || request == nullptr || response == nullptr) {
      throw std::runtime_error("request log " + path.string() +
                               ": record missing seq/request/response");
    }
    RequestLogRecord rec;
    rec.seq = static_cast<std::uint64_t>(seq->as_int64());
    rec.request = request->as_string();
    rec.response = response->as_string();
    out.records.push_back(std::move(rec));
  }
  return out;
}

RequestLogWriter::RequestLogWriter(const std::filesystem::path& path,
                                   bool truncate)
    : log_(path, truncate) {
  if (log_.fresh()) {
    log_.append(std::string("{\"schema\":\"") + kSchema + "\"}");
  }
}

std::uint64_t RequestLogWriter::append(const std::string& request,
                                       const std::string& response) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t seq = next_seq_++;
  log_.append("{\"seq\":" + std::to_string(seq) + ",\"request\":\"" +
              support::json_escape(request) + "\",\"response\":\"" +
              support::json_escape(response) + "\"}");
  return seq;
}

}  // namespace mcs::svc
