#include "service/service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "common/atomic_file.hpp"
#include "common/cancel.hpp"
#include "common/error.hpp"
#include "core/scheme.hpp"
#include "exp/result_store.hpp"
#include "service/protocol.hpp"
#include "sim/simulator.hpp"
#include "support/scoped_dir.hpp"
#include "workload/suite.hpp"

namespace mobcache {
namespace {

namespace fs = std::filesystem;

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::vector<std::string> lines_of(const std::string& bytes) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start < bytes.size()) {
    const std::size_t nl = bytes.find('\n', start);
    if (nl == std::string::npos) {
      out.push_back(bytes.substr(start));
      break;
    }
    out.push_back(bytes.substr(start, nl - start));
    start = nl + 1;
  }
  return out;
}

void submit(const MobcacheDaemon& daemon, const std::string& name,
            const std::string& body) {
  atomic_publish(
      (fs::path(const_cast<MobcacheDaemon&>(daemon).inbox_dir()) / name)
          .string(),
      body, "submit-" + name);
}

TEST(ServiceProtocol, ParsesRequestsAndRejectsBadOnes) {
  auto ok = parse_request_line(
      R"({"id":"r1","apps":"launcher,browser","scheme":"spmrstt",)"
      R"("records":5000,"seed":9,"deadline_ms":250})");
  ASSERT_TRUE(ok.request.has_value());
  EXPECT_EQ(ok.request->id, "r1");
  EXPECT_EQ(ok.request->apps.size(), 2u);
  // A named scheme runs against the baseline, exactly like simrun.
  ASSERT_EQ(ok.request->schemes.size(), 2u);
  EXPECT_EQ(ok.request->schemes[0], SchemeKind::BaselineSram);
  EXPECT_EQ(ok.request->schemes[1], SchemeKind::StaticPartMrstt);
  EXPECT_EQ(ok.request->records, 5000u);
  EXPECT_EQ(ok.request->seed, 9u);
  EXPECT_EQ(ok.request->deadline_ms, 250u);

  auto fleet = parse_request_line(
      R"({"id":"f1","kind":"fleet","sessions":12,"mean_accesses":700})");
  ASSERT_TRUE(fleet.request.has_value());
  EXPECT_EQ(fleet.request->kind, ServiceRequest::Kind::Fleet);
  EXPECT_EQ(fleet.request->fleet_scheme, SchemeKind::DynamicStt);
  EXPECT_EQ(fleet.request->sessions, 12u);

  EXPECT_FALSE(parse_request_line("not json").request.has_value());
  EXPECT_FALSE(parse_request_line("{}").request.has_value());
  // An unknown scheme is rejected with the whole vocabulary listed.
  constexpr const char* kSchemeNames =
      "base shrunk sharedstt drowsy victim sp spmrstt dp dpstt";
  EXPECT_EQ(scheme_kind_names(), kSchemeNames);
  const ParsedRequestLine bad_sim =
      parse_request_line(R"({"id":"x","apps":"launcher","scheme":"warp"})");
  EXPECT_FALSE(bad_sim.request.has_value());
  EXPECT_NE(bad_sim.error.find("unknown scheme 'warp'"), std::string::npos);
  EXPECT_NE(bad_sim.error.find(kSchemeNames), std::string::npos);
  const ParsedRequestLine bad_fleet =
      parse_request_line(R"({"id":"x","kind":"fleet","scheme":"all"})");
  EXPECT_FALSE(bad_fleet.request.has_value());
  EXPECT_NE(bad_fleet.error.find(kSchemeNames), std::string::npos);
  EXPECT_FALSE(
      parse_request_line(R"({"id":"x","apps":"notanapp"})").request.has_value());
  EXPECT_FALSE(parse_request_line(R"({"id":"x","kind":"batch"})")
                   .request.has_value());
  EXPECT_FALSE(
      parse_request_line(R"({"id":"x","apps":"launcher","records":"10"})")
          .request.has_value());
  // The id survives a later parse error, for error-response correlation.
  EXPECT_EQ(parse_request_line(R"({"id":"x","apps":"notanapp"})").id, "x");
}

TEST(ServiceDaemon, GoldenResponseMatchesDirectSimulationAndMemoizes) {
  const ScopedDir tmp("svc_golden");
  const fs::path& dir = tmp.path();
  ServiceConfig cfg;
  cfg.dir = dir.string();
  cfg.store_dir = (dir / "store").string();
  cfg.once = true;
  const std::string request =
      R"({"id":"g","apps":"launcher","scheme":"spmrstt","records":20000,)"
      R"("seed":7})"
      "\n";
  std::string first_response;
  {
    MobcacheDaemon daemon(cfg);
    submit(daemon, "g.jsonl", request);
    EXPECT_EQ(daemon.run(), 0);
    first_response = read_file(fs::path(daemon.outbox_dir()) / "g.jsonl");
    EXPECT_FALSE(
        fs::exists(fs::path(daemon.inbox_dir()) / "g.jsonl"));  // consumed
    EXPECT_EQ(daemon.stats().requests_served, 1u);
    EXPECT_EQ(daemon.stats().requests_rejected, 0u);
  }
  const std::vector<std::string> lines = lines_of(first_response);
  ASSERT_EQ(lines.size(), 2u);

  // The embedded payloads are byte-identical to a direct simulation's
  // record serialization — the daemon adds envelope, never re-encoding.
  const Trace trace = generate_app_trace(AppId::Launcher, 20000, 7);
  const SchemeKind kinds[2] = {SchemeKind::BaselineSram,
                               SchemeKind::StaticPartMrstt};
  for (int i = 0; i < 2; ++i) {
    const auto payload = response_result_payload(lines[i]);
    ASSERT_TRUE(payload.has_value()) << lines[i];
    const SimResult direct =
        simulate(trace, build_scheme(kinds[i], SchemeParams{}), SimOptions{});
    EXPECT_EQ(*payload, result_to_record_json(direct));
  }

  // Re-submitting the identical request against the same store is served
  // entirely warm and re-publishes identical bytes.
  MobcacheDaemon warm(cfg);
  submit(warm, "g.jsonl", request);
  EXPECT_EQ(warm.run(), 0);
  EXPECT_EQ(read_file(fs::path(warm.outbox_dir()) / "g.jsonl"),
            first_response);
  ASSERT_NE(warm.store(), nullptr);
  EXPECT_EQ(warm.store()->stats().hits, 2u);
  EXPECT_EQ(warm.store()->stats().misses, 0u);

  // Liveness snapshot: service.* counters are published to metrics.json.
  const std::string metrics = read_file(warm.metrics_path());
  EXPECT_NE(metrics.find("\"service.served\":1"), std::string::npos)
      << metrics;
  EXPECT_NE(metrics.find("\"service.warm_hits\":2"), std::string::npos)
      << metrics;
}

TEST(ServiceDaemon, MalformedAndUnknownRequestsAreAnsweredAndQuarantined) {
  const ScopedDir tmp("svc_poison");
  const fs::path& dir = tmp.path();
  ServiceConfig cfg;
  cfg.dir = dir.string();
  cfg.once = true;
  MobcacheDaemon daemon(cfg);
  submit(daemon, "mixed.jsonl",
         "{oops\n"
         R"({"id":"bad-scheme","apps":"launcher","scheme":"warp"})"
         "\n"
         R"({"id":"ok","apps":"launcher","scheme":"base","records":5000})"
         "\n");
  EXPECT_EQ(daemon.run(), 0);

  const std::vector<std::string> lines =
      lines_of(read_file(fs::path(daemon.outbox_dir()) / "mixed.jsonl"));
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines[0].find("\"error_type\":\"config\""), std::string::npos);
  EXPECT_NE(lines[0].find("malformed request"), std::string::npos);
  EXPECT_NE(lines[1].find("\"id\":\"bad-scheme\""), std::string::npos);
  EXPECT_NE(lines[1].find("unknown scheme 'warp'"), std::string::npos);
  EXPECT_NE(lines[2].find("\"id\":\"ok\""), std::string::npos);
  EXPECT_TRUE(response_result_payload(lines[2]).has_value());

  // The file carried poison lines: moved to quarantine/, not deleted.
  EXPECT_TRUE(fs::exists(fs::path(daemon.quarantine_dir()) / "mixed.jsonl"));
  EXPECT_FALSE(fs::exists(fs::path(daemon.inbox_dir()) / "mixed.jsonl"));
  EXPECT_EQ(daemon.stats().requests_rejected, 2u);
  EXPECT_EQ(daemon.stats().requests_served, 1u);
  EXPECT_EQ(daemon.stats().files_quarantined, 1u);
}

TEST(ServiceDaemon, TornRequestFileIsAnsweredAndQuarantined) {
  const ScopedDir tmp("svc_torn");
  const fs::path& dir = tmp.path();
  ServiceConfig cfg;
  cfg.dir = dir.string();
  cfg.once = true;
  MobcacheDaemon daemon(cfg);
  // No trailing newline: the atomic-submission contract was violated.
  {
    std::ofstream out(fs::path(daemon.inbox_dir()) / "torn.jsonl",
                      std::ios::binary);
    out << R"({"id":"t","apps":"launcher")";
  }
  EXPECT_EQ(daemon.run(), 0);
  const std::vector<std::string> lines =
      lines_of(read_file(fs::path(daemon.outbox_dir()) / "torn.jsonl"));
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"error_type\":\"trace\""), std::string::npos);
  EXPECT_NE(lines[0].find("torn request file"), std::string::npos);
  EXPECT_TRUE(fs::exists(fs::path(daemon.quarantine_dir()) / "torn.jsonl"));
}

TEST(ServiceDaemon, PreCancelledTokenLeavesInboxUntouched) {
  const ScopedDir tmp("svc_precancel");
  const fs::path& dir = tmp.path();
  CancelToken token;
  token.request_cancel();
  ServiceConfig cfg;
  cfg.dir = dir.string();
  cfg.cancel = &token;
  MobcacheDaemon daemon(cfg);
  submit(daemon, "pending.jsonl",
         R"({"id":"p","apps":"launcher","scheme":"base","records":5000})"
         "\n");
  int code = -1;
  try {
    daemon.run();
  } catch (const SimError& e) {
    code = exit_code_for(e);
  }
  // The documented resumable drain: exit 75, request still queued.
  EXPECT_EQ(code, kExitInterrupted);
  EXPECT_TRUE(fs::exists(fs::path(daemon.inbox_dir()) / "pending.jsonl"));
  EXPECT_FALSE(fs::exists(fs::path(daemon.outbox_dir()) / "pending.jsonl"));
}

TEST(ServiceDaemon, CancelDrainsWithExit75AndRestartServesWarmHits) {
  const ScopedDir tmp("svc_drain");
  const fs::path& dir = tmp.path();
  const std::string store_dir = (dir / "store").string();
  CancelToken token;
  ServiceConfig cfg;
  cfg.dir = dir.string();
  cfg.store_dir = store_dir;
  cfg.poll_ms = 5;
  cfg.epoch_ms = 50;
  cfg.cancel = &token;
  MobcacheDaemon daemon(cfg);
  submit(daemon, "req-a.jsonl",
         R"({"id":"a","apps":"launcher","scheme":"spmrstt","records":20000,)"
         R"("seed":7})"
         "\n");

  std::atomic<int> code{-1};
  std::thread worker([&] {
    try {
      daemon.run();
      code = 0;
    } catch (const SimError& e) {
      code = exit_code_for(e);
    }
  });
  // Wait for req-a's response, then ask the long-running daemon to drain.
  const fs::path response = fs::path(daemon.outbox_dir()) / "req-a.jsonl";
  for (int i = 0; i < 2000 && !fs::exists(response); ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ASSERT_TRUE(fs::exists(response));
  token.request_cancel();
  worker.join();
  EXPECT_EQ(code.load(), kExitInterrupted);

  // A restarted daemon against the same store serves the overlapping cells
  // of a bigger request warm: req-b's base and spmrstt cells were computed
  // by req-a, so the store reports hits without re-simulating them.
  ServiceConfig cfg2;
  cfg2.dir = dir.string();
  cfg2.store_dir = store_dir;
  cfg2.once = true;
  MobcacheDaemon restarted(cfg2);
  submit(restarted, "req-b.jsonl",
         R"({"id":"b","apps":"launcher","scheme":"all","records":20000,)"
         R"("seed":7})"
         "\n");
  EXPECT_EQ(restarted.run(), 0);
  const std::vector<std::string> lines =
      lines_of(read_file(fs::path(restarted.outbox_dir()) / "req-b.jsonl"));
  EXPECT_EQ(lines.size(), headline_schemes().size());
  ASSERT_NE(restarted.store(), nullptr);
  EXPECT_GE(restarted.store()->stats().hits, 2u);
}

TEST(ServiceDaemon, FleetRequestsReturnSessionSummaries) {
  const ScopedDir tmp("svc_fleet");
  const fs::path& dir = tmp.path();
  ServiceConfig cfg;
  cfg.dir = dir.string();
  cfg.once = true;
  MobcacheDaemon daemon(cfg);
  submit(daemon, "fleet.jsonl",
         R"({"id":"f","kind":"fleet","scheme":"dpstt","sessions":16,)"
         R"("mean_accesses":600,"seed":3})"
         "\n");
  EXPECT_EQ(daemon.run(), 0);
  const std::vector<std::string> lines =
      lines_of(read_file(fs::path(daemon.outbox_dir()) / "fleet.jsonl"));
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"kind\":\"fleet\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"sessions\":16"), std::string::npos);
  EXPECT_NE(lines[0].find("\"cpi\""), std::string::npos);
  EXPECT_FALSE(response_result_payload(lines[0]).has_value());
}

}  // namespace
}  // namespace mobcache
