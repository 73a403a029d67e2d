/// \file mobcache_daemon.cpp
/// CLI: mobcached, the long-running simulation service (docs/SERVICE.md).
/// Watches `<dir>/inbox/` for JSONL request files, answers each under
/// `<dir>/outbox/`, memoizes through a shared result store, and republishes
/// `<dir>/metrics.json` every epoch.
///
/// Usage:
///   mobcache_daemon <dir> [--store-dir=PATH] [--jobs=N] [--poll-ms=N]
///                   [--epoch-ms=N] [--once] [--idle-exit-ms=N]
///
///   <dir>              service root; inbox/ outbox/ quarantine/ are
///                      created inside it
///   --store-dir=PATH   memoize (scheme × workload) cells in the result
///                      store at PATH — shared with mobcache_simrun and the
///                      benches, byte-identical records either way
///   --jobs=N           worker threads per request (default: MOBCACHE_JOBS
///                      env, then hardware concurrency)
///   --poll-ms=N        inbox poll interval while idle (default 50)
///   --epoch-ms=N       metrics.json republish cadence (default 1000)
///   --once             serve everything currently queued, then exit
///   --idle-exit-ms=N   exit cleanly after N ms with an empty inbox
///
/// Exit codes (shared guarded_main contract, src/common/error.hpp):
/// 0 ok, 2 usage error, 75 interrupted by SIGINT/SIGTERM — the drain is
/// resumable: finished points are persisted, the in-flight request file
/// stays queued, and a restarted daemon completes it from warm hits.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/env.hpp"
#include "exp/bench_harness.hpp"
#include "exp/parallel.hpp"
#include "service/service.hpp"

using namespace mobcache;

namespace {

/// Value of an `--name=value` flag; an empty value is a hard usage error
/// (same contract as mobcache_simrun).
std::string require_flag_value(const std::string& a, const char* flag,
                               const char* what) {
  std::string v = a.substr(std::strlen(flag));
  if (v.empty()) {
    std::fprintf(stderr, "%.*s needs %s\n",
                 static_cast<int>(std::strlen(flag) - 1), flag, what);
    std::exit(2);
  }
  return v;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <dir> [--store-dir=PATH] [--jobs=N] [--poll-ms=N]\n"
               "          [--epoch-ms=N] [--once] [--idle-exit-ms=N]\n",
               argv0);
  return 2;
}

}  // namespace

static int tool_main(int argc, char** argv) {
  ServiceConfig cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--", 0) != 0) {
      if (!cfg.dir.empty()) return usage(argv[0]);
      cfg.dir = a;
    } else if (a.rfind("--store-dir=", 0) == 0) {
      cfg.store_dir = require_flag_value(a, "--store-dir=", "a path");
    } else if (a.rfind("--jobs=", 0) == 0) {
      cfg.jobs = static_cast<unsigned>(parse_uint(
          require_flag_value(a, "--jobs=", "a count"), "--jobs", 0, 65536));
    } else if (a.rfind("--poll-ms=", 0) == 0) {
      cfg.poll_ms = parse_uint(
          require_flag_value(a, "--poll-ms=", "an interval"), "--poll-ms");
    } else if (a.rfind("--epoch-ms=", 0) == 0) {
      cfg.epoch_ms = parse_uint(
          require_flag_value(a, "--epoch-ms=", "an interval"), "--epoch-ms");
    } else if (a == "--once") {
      cfg.once = true;
    } else if (a.rfind("--idle-exit-ms=", 0) == 0) {
      cfg.idle_exit_ms = parse_uint(
          require_flag_value(a, "--idle-exit-ms=", "a duration"),
          "--idle-exit-ms");
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", a.c_str());
      return 2;
    }
  }
  if (cfg.dir.empty()) return usage(argv[0]);
  MobcacheDaemon daemon(cfg);
  std::printf("mobcached: serving %s (store: %s, jobs: %u)\n",
              cfg.dir.c_str(),
              cfg.store_dir.empty() ? "off" : cfg.store_dir.c_str(),
              effective_jobs(cfg.jobs));
  return daemon.run();
}

int main(int argc, char** argv) {
  // Signal handlers on: SIGTERM/SIGINT drain the in-flight request, keep
  // the store and inbox consistent, and exit 75 (resumable).
  return guarded_main("mobcached", /*install_signals=*/true, argc, argv,
                      tool_main);
}
