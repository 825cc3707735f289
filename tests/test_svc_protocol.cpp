// Malformed-input tests for the admission protocol (docs/SERVICE.md):
// every hostile or broken request line must produce a structured
// `{"ok":false,"error":{code,message}}` response — never a crash, never an
// exception out of handle_line, never silent acceptance.  The full suite
// runs under ASan/UBSan in CI (sanitize job), so "no crash" here also
// means "no finding".
#include <gtest/gtest.h>

#include <string>

#include "support/json.hpp"
#include "svc/service.hpp"

using namespace mcs;
using support::Json;

namespace {

/// Runs one line and requires a structured error with `code`.
void expect_error(svc::AdmissionService& service, const std::string& line,
                  const std::string& code) {
  const std::string response_line = service.handle_line(line);
  const Json response = support::parse_json(response_line);  // always valid JSON
  const Json* ok = response.find("ok");
  ASSERT_NE(ok, nullptr) << response_line;
  ASSERT_FALSE(ok->as_bool()) << "accepted: " << line;
  const Json* error = response.find("error");
  ASSERT_NE(error, nullptr) << response_line;
  EXPECT_EQ(error->find("code")->as_string(), code)
      << "request: " << line << "\nresponse: " << response_line;
  EXPECT_FALSE(error->find("message")->as_string().empty()) << response_line;
}

std::string admit_with(const std::string& task_fields) {
  return "{\"op\":\"admit\",\"core\":\"c\",\"task\":{" + task_fields + "}}";
}

const char* kValidTask =
    "\"name\":\"a\",\"exec\":100,\"copy_in\":10,\"copy_out\":10,"
    "\"period\":1000,\"deadline\":1000,\"prio\":0";

}  // namespace

TEST(SvcProtocol, TruncatedFramesAreParseErrors) {
  svc::AdmissionService service;
  expect_error(service, "{\"op\":\"anal", "parse_error");
  expect_error(service, "{\"op\":\"analyze\",", "parse_error");
  expect_error(service, "{\"op\":\"analyze\"}trailing", "parse_error");
  expect_error(service, "", "parse_error");
  expect_error(service, "\x01\x02\x03", "parse_error");
  // The service stays usable after garbage.
  const Json response =
      support::parse_json(service.handle_line("{\"op\":\"status\"}"));
  EXPECT_TRUE(response.find("ok")->as_bool());
}

TEST(SvcProtocol, NumericEdgeCasesInTicks) {
  svc::AdmissionService service;
  // NaN / Infinity are not JSON at all.
  expect_error(service, admit_with("\"name\":\"a\",\"exec\":NaN"),
               "parse_error");
  expect_error(service, admit_with("\"name\":\"a\",\"exec\":Infinity"),
               "parse_error");
  // Overflow past int64 (and past double precision) is rejected, not
  // silently truncated.
  expect_error(service,
               admit_with("\"name\":\"a\",\"exec\":9223372036854775808,"
                          "\"copy_in\":1,\"copy_out\":1,\"period\":10,"
                          "\"deadline\":10,\"prio\":0"),
               "parse_error");
  expect_error(service,
               admit_with("\"name\":\"a\",\"exec\":1e999,\"copy_in\":1,"
                          "\"copy_out\":1,\"period\":10,\"deadline\":10,"
                          "\"prio\":0"),
               "parse_error");
  // Fractional and string-typed ticks are structured bad_request errors.
  expect_error(service,
               admit_with("\"name\":\"a\",\"exec\":1.5,\"copy_in\":1,"
                          "\"copy_out\":1,\"period\":10,\"deadline\":10,"
                          "\"prio\":0"),
               "bad_request");
  expect_error(service,
               admit_with("\"name\":\"a\",\"exec\":\"100\",\"copy_in\":1,"
                          "\"copy_out\":1,\"period\":10,\"deadline\":10,"
                          "\"prio\":0"),
               "bad_request");
  // Values that parse but violate task invariants (C <= 0) are rejected
  // by TaskSet validation as invalid_task.
  expect_error(service,
               admit_with("\"name\":\"a\",\"exec\":-5,\"copy_in\":1,"
                          "\"copy_out\":1,\"period\":10,\"deadline\":10,"
                          "\"prio\":0"),
               "invalid_task");
  expect_error(service,
               admit_with("\"name\":\"a\",\"exec\":0,\"copy_in\":1,"
                          "\"copy_out\":1,\"period\":10,\"deadline\":10,"
                          "\"prio\":0"),
               "invalid_task");
  // Priority outside the 32-bit Priority range.
  expect_error(service,
               admit_with("\"name\":\"a\",\"exec\":5,\"copy_in\":1,"
                          "\"copy_out\":1,\"period\":10,\"deadline\":10,"
                          "\"prio\":4294967296"),
               "bad_request");
}

TEST(SvcProtocol, DuplicateTasksAndPriorities) {
  svc::AdmissionService service;
  const Json first =
      support::parse_json(service.handle_line(admit_with(kValidTask)));
  ASSERT_TRUE(first.find("ok")->as_bool());
  ASSERT_TRUE(first.find("committed")->as_bool());
  // Same name again.
  expect_error(service, admit_with(kValidTask), "duplicate_task");
  // New name, same priority.
  expect_error(service,
               admit_with("\"name\":\"b\",\"exec\":100,\"copy_in\":10,"
                          "\"copy_out\":10,\"period\":1000,"
                          "\"deadline\":1000,\"prio\":0"),
               "duplicate_priority");
  // Duplicate *JSON keys* inside one object are a parse error.
  expect_error(service,
               admit_with("\"name\":\"c\",\"name\":\"d\",\"exec\":100,"
                          "\"copy_in\":10,\"copy_out\":10,\"period\":1000,"
                          "\"deadline\":1000,\"prio\":1"),
               "parse_error");
}

TEST(SvcProtocol, StructuralViolations) {
  svc::AdmissionService service;
  expect_error(service, "[1,2,3]", "bad_request");       // not an object
  expect_error(service, "\"analyze\"", "bad_request");   // not an object
  expect_error(service, "{}", "bad_request");            // missing op
  expect_error(service, "{\"op\":42}", "bad_request");   // op not a string
  expect_error(service, "{\"op\":\"frobnicate\"}", "unknown_op");
  expect_error(service, "{\"op\":\"analyze\",\"core\":\"\"}", "bad_request");
  expect_error(service, "{\"op\":\"analyze\",\"core\":7}", "bad_request");
  expect_error(service, "{\"op\":\"analyze\",\"mode\":\"fastest\"}",
               "bad_request");
  expect_error(service, "{\"op\":\"admit\",\"core\":\"c\"}", "bad_request");
  expect_error(service, "{\"op\":\"admit\",\"core\":\"c\",\"task\":[]}",
               "bad_request");
  expect_error(service,
               "{\"op\":\"admit\",\"core\":\"c\",\"task\":{\"exec\":1}}",
               "bad_request");  // missing name
  expect_error(service, admit_with("\"name\":\"\",\"exec\":1"),
               "bad_request");  // empty name
}

TEST(SvcProtocol, UnknownTaskOperations) {
  svc::AdmissionService service;
  expect_error(service, "{\"op\":\"remove\",\"core\":\"c\",\"name\":\"x\"}",
               "unknown_task");
  expect_error(service,
               "{\"op\":\"mark_ls\",\"core\":\"c\",\"name\":\"x\","
               "\"ls\":true}",
               "unknown_task");
  expect_error(service, "{\"op\":\"remove\",\"core\":\"c\"}", "bad_request");
  expect_error(service,
               "{\"op\":\"mark_ls\",\"core\":\"c\",\"name\":\"x\"}",
               "bad_request");  // missing ls
  // mark_ls with a non-boolean ls.
  support::parse_json(service.handle_line(admit_with(kValidTask)));
  expect_error(service,
               "{\"op\":\"mark_ls\",\"core\":\"c\",\"name\":\"a\","
               "\"ls\":\"yes\"}",
               "bad_request");
}

TEST(SvcProtocol, DepthBombIsAParseError) {
  svc::AdmissionService service;
  std::string bomb = "{\"op\":";
  for (int i = 0; i < 100; ++i) bomb += "[";
  for (int i = 0; i < 100; ++i) bomb += "]";
  bomb += "}";
  expect_error(service, bomb, "parse_error");
}

TEST(SvcProtocol, OversizeRequestsAreRejectedBeforeParsing) {
  svc::ServiceConfig config;
  config.max_request_bytes = 128;
  svc::AdmissionService service(std::move(config));
  std::string big = "{\"op\":\"analyze\",\"core\":\"";
  big.append(200, 'x');
  big += "\"}";
  expect_error(service, big, "request_too_large");
  // A small request still works afterwards.
  EXPECT_TRUE(support::parse_json(service.handle_line("{\"op\":\"status\"}"))
                  .find("ok")->as_bool());
}

TEST(SvcProtocol, IdIsEchoedOnSuccessAndError) {
  svc::AdmissionService service;
  const Json success = support::parse_json(
      service.handle_line("{\"id\":7,\"op\":\"status\"}"));
  ASSERT_NE(success.find("id"), nullptr);
  EXPECT_EQ(success.find("id")->as_int64(), 7);

  const Json error = support::parse_json(
      service.handle_line("{\"id\":\"req-9\",\"op\":\"frobnicate\"}"));
  ASSERT_NE(error.find("id"), nullptr);
  EXPECT_EQ(error.find("id")->as_string(), "req-9");

  // No id in the request -> no id key in the response.
  const Json anonymous =
      support::parse_json(service.handle_line("{\"op\":\"status\"}"));
  EXPECT_EQ(anonymous.find("id"), nullptr);
}

TEST(SvcProtocol, BadBudgetTypes) {
  svc::AdmissionService service;
  expect_error(service,
               "{\"op\":\"analyze\",\"core\":\"c\",\"budget_ms\":\"fast\"}",
               "bad_request");
  expect_error(service,
               "{\"op\":\"analyze\",\"core\":\"c\",\"budget_ms\":true}",
               "bad_request");
}

TEST(SvcProtocol, ErrorsNeverMutateState) {
  svc::AdmissionService service;
  ASSERT_TRUE(support::parse_json(service.handle_line(admit_with(kValidTask)))
                  .find("ok")->as_bool());
  // A burst of malformed requests...
  expect_error(service, admit_with(kValidTask), "duplicate_task");
  expect_error(service, "{\"op\":\"remove\",\"core\":\"c\",\"name\":\"z\"}",
               "unknown_task");
  expect_error(service, "{\"op\":\"anal", "parse_error");
  // ...leaves the admitted membership untouched.
  const Json verdict = support::parse_json(
      service.handle_line("{\"op\":\"analyze\",\"core\":\"c\"}"));
  ASSERT_TRUE(verdict.find("ok")->as_bool());
  EXPECT_EQ(verdict.find("verdict")->find("tasks")->as_array().size(), 1u);
  EXPECT_EQ(service.stats().failed, 3u);
}
