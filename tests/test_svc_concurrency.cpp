// Concurrency soak for the admission-control service (docs/SERVICE.md).
//
// Several client threads drive one AdmissionService through the submit()
// worker-pool path, each in lockstep against its own core (submit the next
// request only after the previous response arrives — the same per-core
// ordering a socket session gives).  The service's thread count is swept
// over {1, 4, 8}; the per-client transcript of verdicts and the final
// per-core verdict map must be byte-identical across all three, which is
// the service's documented determinism contract ("for a fixed per-core
// request order ... independent of thread count").  Only the `cached` flag
// may vary: the shared LRU cache sees a different global interleaving each
// run.  Runs under TSan in CI to shake out data races in the core-mutex /
// cache-mutex / engine-session choreography.
#include <gtest/gtest.h>

#include <cstdint>
#include <future>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "rt/types.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "svc/service.hpp"

using namespace mcs;
using support::Json;

namespace {

std::string request_sync(svc::AdmissionService& service,
                         const std::string& line) {
  std::promise<std::string> promise;
  std::future<std::string> future = promise.get_future();
  service.submit(line,
                 [&promise](std::string r) { promise.set_value(std::move(r)); });
  return future.get();
}

/// Reduces a response to its thread-count-invariant content: everything
/// except the `cached` flag (and the mutable status counters).
std::string canonical(const std::string& response_line) {
  const Json response = support::parse_json(response_line);
  std::ostringstream out;
  const Json* ok = response.find("ok");
  out << "ok=" << (ok != nullptr && ok->as_bool());
  if (const Json* committed = response.find("committed")) {
    out << " committed=" << committed->as_bool();
  }
  if (const Json* error = response.find("error")) {
    out << " error=" << error->find("code")->as_string();
  }
  if (const Json* verdict = response.find("verdict")) {
    out << " schedulable=" << verdict->find("schedulable")->as_bool()
        << " degraded=" << verdict->find("degraded")->as_bool()
        << " rounds=" << verdict->find("rounds")->as_int64()
        << " fp=" << verdict->find("fingerprint")->as_string()
        << " tasks=" << verdict->find("tasks")->dump();
  }
  if (const Json* tasks = response.find("tasks")) {
    if (tasks->is_number()) out << " tasks=" << tasks->as_int64();
  }
  return out.str();
}

/// Scripted client: a deterministic per-core request sequence derived from
/// `client` alone, so the same requests are issued no matter how many
/// worker threads the service runs.  Returns the canonical transcript.
std::vector<std::string> run_client(svc::AdmissionService& service,
                                    int client, int ops) {
  support::Rng rng(0xC0FFEEu + static_cast<std::uint64_t>(client));
  const std::string core = "core-" + std::to_string(client);
  std::vector<std::string> transcript;
  std::vector<std::string> admitted;  // names currently on the core
  int next_id = 0;

  for (int op = 0; op < ops; ++op) {
    std::string line;
    const double r = rng.uniform01();
    if (admitted.empty() || (r < 0.5 && admitted.size() < 3)) {
      const std::string name = std::string("c")
                                   .append(std::to_string(client))
                                   .append("t")
                                   .append(std::to_string(next_id));
      const rt::Time exec = rng.uniform_int(100, 500);
      const rt::Time copy = rng.uniform_int(20, 150);
      const rt::Time period = rng.uniform_int(1500, 8000);
      std::ostringstream req;
      req << "{\"op\":\"admit\",\"core\":\"" << core
          << "\",\"task\":{\"name\":\"" << name << "\",\"exec\":" << exec
          << ",\"copy_in\":" << copy << ",\"copy_out\":" << copy
          << ",\"period\":" << period << ",\"deadline\":" << period
          << ",\"prio\":" << next_id << "}}";
      ++next_id;
      line = req.str();
      const std::string response = request_sync(service, line);
      transcript.push_back(canonical(response));
      if (support::parse_json(response).find("committed")->as_bool()) {
        admitted.push_back(name);
      }
      continue;
    }
    if (r < 0.65) {
      const std::size_t victim = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(admitted.size()) - 1));
      line = "{\"op\":\"remove\",\"core\":\"" + core + "\",\"name\":\"" +
             admitted[victim] + "\"}";
      admitted.erase(admitted.begin() + static_cast<std::ptrdiff_t>(victim));
    } else {
      const char* mode = rng.bernoulli(0.5) ? "greedy" : "wp";
      line = "{\"op\":\"analyze\",\"core\":\"" + core + "\",\"mode\":\"" +
             mode + "\"}";
    }
    transcript.push_back(canonical(request_sync(service, line)));
  }
  return transcript;
}

struct SoakOutcome {
  std::map<int, std::vector<std::string>> transcripts;  // client -> lines
  std::map<std::string, std::string> final_verdicts;    // core -> canonical
  svc::ServiceStats stats;
};

SoakOutcome run_soak(std::size_t service_threads, int clients, int ops) {
  svc::ServiceConfig config;
  config.threads = service_threads;
  config.cache_capacity = 16;
  // High water comfortably above the client count: this test is about
  // determinism, not shedding (test_svc_degradation covers shedding).
  config.queue_high_water = 64;
  svc::AdmissionService service(std::move(config));

  SoakOutcome outcome;
  std::vector<std::thread> threads;
  std::mutex outcome_mutex;
  threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      std::vector<std::string> transcript = run_client(service, c, ops);
      const std::lock_guard<std::mutex> lock(outcome_mutex);
      outcome.transcripts[c] = std::move(transcript);
    });
  }
  for (std::thread& t : threads) t.join();
  service.drain();

  for (int c = 0; c < clients; ++c) {
    const std::string core = "core-" + std::to_string(c);
    outcome.final_verdicts[core] = canonical(service.handle_line(
        "{\"op\":\"analyze\",\"core\":\"" + core + "\"}"));
  }
  outcome.stats = service.stats();
  return outcome;
}

}  // namespace

TEST(SvcConcurrency, VerdictsIndependentOfServiceThreadCount) {
  constexpr int kClients = 4;
  constexpr int kOps = 12;
  const SoakOutcome one = run_soak(1, kClients, kOps);
  const SoakOutcome four = run_soak(4, kClients, kOps);
  const SoakOutcome eight = run_soak(8, kClients, kOps);

  EXPECT_EQ(one.final_verdicts, four.final_verdicts);
  EXPECT_EQ(one.final_verdicts, eight.final_verdicts);
  // The scripted clients only issue valid requests: a transcript full of
  // identical *errors* would match across thread counts while testing
  // nothing, so require every line to be a verdict or a remove ack.
  for (const auto& [client, transcript] : one.transcripts) {
    ASSERT_EQ(transcript.size(), static_cast<std::size_t>(kOps))
        << "client " << client;
    for (const std::string& line : transcript) {
      EXPECT_EQ(line.find("error="), std::string::npos)
          << "client " << client << ": " << line;
      EXPECT_NE(line.find("ok=1"), std::string::npos)
          << "client " << client << ": " << line;
    }
  }
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(one.transcripts.at(c), four.transcripts.at(c))
        << "client " << c << " diverged between 1 and 4 service threads";
    EXPECT_EQ(one.transcripts.at(c), eight.transcripts.at(c))
        << "client " << c << " diverged between 1 and 8 service threads";
  }
  // Nothing was shed and every request was answered exactly once.
  for (const SoakOutcome* o : {&one, &four, &eight}) {
    EXPECT_EQ(o->stats.shed, 0u);
    EXPECT_EQ(o->stats.queue_depth, 0u);
    EXPECT_EQ(o->stats.cores, static_cast<std::size_t>(kClients));
  }
}

TEST(SvcConcurrency, ParallelClientsOnOneSharedCore) {
  // All clients hammer the *same* core: requests serialize on the core
  // mutex in some order, but every response must still be internally
  // consistent (committed == schedulable, task membership a function of
  // the accepted admits).  This is the TSan-relevant contention pattern.
  svc::ServiceConfig config;
  config.threads = 4;
  config.cache_capacity = 16;
  svc::AdmissionService service(std::move(config));

  constexpr int kClients = 4;
  std::vector<std::thread> threads;
  std::atomic<int> committed{0};
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      std::ostringstream req;
      req << "{\"op\":\"admit\",\"core\":\"shared\",\"task\":{\"name\":\"t"
          << c << "\",\"exec\":200,\"copy_in\":40,\"copy_out\":40,"
          << "\"period\":4000,\"deadline\":4000,\"prio\":" << c << "}}";
      const Json response =
          support::parse_json(request_sync(service, req.str()));
      ASSERT_TRUE(response.find("ok")->as_bool());
      if (response.find("committed")->as_bool()) {
        committed.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  service.drain();

  const Json final_verdict = support::parse_json(
      service.handle_line("{\"op\":\"analyze\",\"core\":\"shared\"}"));
  ASSERT_TRUE(final_verdict.find("ok")->as_bool());
  const Json* verdict = final_verdict.find("verdict");
  EXPECT_EQ(
      static_cast<int>(verdict->find("tasks")->as_array().size()),
      committed.load());
}

TEST(SvcConcurrency, HandleLineFromShortLivedThreadsMatchesOneThread) {
  // handle_line answers on a request thread that serves the calling thread
  // and is joined when that thread exits.  A session whose every request
  // comes from a fresh thread must read exactly like the same session
  // driven from one thread, `cached` flags included.
  std::vector<std::string> script;
  for (int i = 0; i < 4; ++i) {
    std::ostringstream admit;
    admit << "{\"op\":\"admit\",\"core\":\"c\",\"task\":{\"name\":\"t" << i
          << "\",\"exec\":" << 200 + 50 * i
          << ",\"copy_in\":40,\"copy_out\":40,\"period\":" << 4000 + 1000 * i
          << ",\"deadline\":" << 4000 + 1000 * i << ",\"prio\":" << i << "}}";
    script.push_back(admit.str());
  }
  script.push_back("{\"op\":\"analyze\",\"core\":\"c\"}");
  script.push_back("{\"op\":\"mark_ls\",\"core\":\"c\",\"name\":\"t0\",\"ls\":true}");
  script.push_back("{\"op\":\"mark_ls\",\"core\":\"c\",\"name\":\"t0\",\"ls\":false}");
  script.push_back("{\"op\":\"analyze\",\"core\":\"c\",\"mode\":\"wp\"}");
  script.push_back("{\"op\":\"analyze\",\"core\":\"c\",\"budget_ms\":0}");
  script.push_back("{\"op\":\"remove\",\"core\":\"c\",\"name\":\"t9\"}");

  svc::AdmissionService one_thread;
  std::vector<std::string> expected;
  for (const std::string& line : script) {
    expected.push_back(one_thread.handle_line(line));
  }

  svc::AdmissionService many_threads;
  for (std::size_t k = 0; k < script.size(); ++k) {
    std::string response;
    std::thread([&] { response = many_threads.handle_line(script[k]); })
        .join();
    EXPECT_EQ(response, expected[k]) << "request " << k;
  }
}

TEST(SvcConcurrency, HandleLineResponsesHoldOnlyTheirText) {
  // The response is copied out of the request thread at its exact size, so
  // a caller that keeps responses keeps no slack capacity.
  svc::AdmissionService service;
  const std::string response = service.handle_line(
      "{\"op\":\"admit\",\"core\":\"c\",\"task\":{\"name\":\"a\","
      "\"exec\":100,\"copy_in\":10,\"copy_out\":10,\"period\":1000,"
      "\"deadline\":1000,\"prio\":0}}");
  ASSERT_GT(response.size(), 15u);  // beyond the small-string buffer
  EXPECT_EQ(response.capacity(), response.size());
  EXPECT_TRUE(support::parse_json(response).find("ok")->as_bool());
}
