#include "exp/bench_harness.hpp"

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>

#include "common/cancel.hpp"
#include "common/env.hpp"
#include "common/error.hpp"
#include "exp/parallel.hpp"
#include "exp/report.hpp"

namespace mobcache {

unsigned bench_jobs(int argc, char** argv) {
  unsigned requested = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--jobs=", 7) == 0) {
      // 0 keeps meaning auto, like MOBCACHE_JOBS.
      requested =
          static_cast<unsigned>(parse_uint(argv[i] + 7, "--jobs", 0, 65536));
    }
  }
  return effective_jobs(requested);
}

std::unique_ptr<ResultStore> bench_result_store(int argc, char** argv) {
  std::string dir;
  bool resume = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--store-dir=", 12) == 0) {
      dir = argv[i] + 12;
    } else if (std::strcmp(argv[i], "--resume") == 0) {
      resume = true;
    }
  }
  if (!dir.empty()) return std::make_unique<ResultStore>(dir);
  if (auto store = ResultStore::from_env()) return store;
  if (resume) return std::make_unique<ResultStore>(results_path("result_store"));
  return nullptr;
}

namespace {

bool has_flag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], flag) == 0) return true;
  return false;
}

}  // namespace

bool bench_keep_going(int argc, char** argv) {
  return has_flag(argc, argv, "--keep-going");
}

bool bench_retry_failed(int argc, char** argv) {
  return has_flag(argc, argv, "--retry-failed");
}

std::uint64_t bench_point_deadline_ms(int argc, char** argv) {
  std::uint64_t ms = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--point-deadline-ms=", 20) == 0)
      ms = parse_uint(argv[i] + 20, "--point-deadline-ms");
  }
  return ms;
}

std::vector<std::size_t> bench_fail_points(int argc, char** argv) {
  std::vector<std::size_t> points;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--fail-points=", 14) != 0) continue;
    const char* p = argv[i] + 14;
    while (*p != '\0') {
      char* end = nullptr;
      const unsigned long long v = std::strtoull(p, &end, 10);
      if (end == p) {
        throw ConfigError(std::string("bad --fail-points list: ") +
                          (argv[i] + 14));
      }
      points.push_back(static_cast<std::size_t>(v));
      p = (*end == ',') ? end + 1 : end;
      if (end == p && *end != '\0') {
        throw ConfigError(std::string("bad --fail-points list: ") +
                          (argv[i] + 14));
      }
    }
  }
  return points;
}

unsigned bench_sweep_batch(int argc, char** argv) {
  // The default lane cap when --batch is given bare: big enough to cover
  // every shipped sweep grid in one or two replays, small enough that lane
  // state stays cache-resident.
  constexpr unsigned kDefaultBatch = 16;
  std::optional<unsigned> from_flag;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--batch=", 8) == 0) {
      char* end = nullptr;
      const unsigned long long v = std::strtoull(argv[i] + 8, &end, 10);
      if (end == argv[i] + 8 || *end != '\0' || v > 4096) {
        throw ConfigError(std::string("bad --batch value: ") + (argv[i] + 8));
      }
      from_flag = static_cast<unsigned>(v);
    } else if (std::strcmp(argv[i], "--batch") == 0) {
      from_flag = kDefaultBatch;
    }
  }
  unsigned batch = 1;
  if (from_flag) {
    batch = *from_flag;
  } else if (const auto env = env_u64("MOBCACHE_SWEEP_BATCH", 0, 4096)) {
    batch = static_cast<unsigned>(*env);
  }
  return batch < 1 ? 1u : batch;
}

void chaos_maybe_fail(const std::vector<std::size_t>& fail_points,
                      std::size_t index) {
  for (std::size_t p : fail_points) {
    if (p != index) continue;
    NumericError err("injected chaos fault");
    err.with_point(index);
    throw err;
  }
}

int guarded_main(const char* tool, bool install_signals, int argc, char** argv,
                 int (*real_main)(int, char**)) {
  if (install_signals) install_cancellation_handlers();
  try {
    return real_main(argc, argv);
  } catch (const SimError& e) {
    if (e.kind() == SimErrorKind::Cancelled) {
      std::fprintf(stderr, "%s: interrupted: %s\n", tool, e.what());
    } else {
      std::fprintf(stderr, "%s: error: %s\n", tool, e.what());
    }
    return exit_code_for(e);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: error: %s\n", tool, e.what());
    return exit_code_for(e);
  }
}

std::uint64_t peak_rss_bytes() {
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::uint64_t>(ru.ru_maxrss);  // bytes on Darwin
#else
  return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;  // KiB on Linux
#endif
}

bool write_json_results(const JsonWriter& w, const std::string& filename) {
  const std::string path = results_path(filename);
  std::error_code ec;
  const auto parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent, ec);
  std::ofstream f(path, std::ios::trunc);
  if (!f) return false;
  f << w.str() << '\n';
  return static_cast<bool>(f);
}

BenchReport::BenchReport(std::string name, unsigned jobs)
    : name_(std::move(name)),
      jobs_(jobs),
      start_(std::chrono::steady_clock::now()) {}

void BenchReport::add_result(const std::string& key, double value) {
  results_.emplace_back(key, value);
}

void BenchReport::add_run_fact(const std::string& key, double value) {
  run_facts_.emplace_back(key, value);
}

void BenchReport::add_point_failure(const PointFailure& f, std::string point) {
  ManifestEntry e;
  e.point = std::move(point);
  e.error_type = f.error_type;
  e.message = f.message;
  e.quarantined = f.quarantined;
  failures_.push_back(std::move(e));
}

double BenchReport::wall_ms() const {
  const auto dt = std::chrono::steady_clock::now() - start_;
  return std::chrono::duration<double, std::milli>(dt).count();
}

bool BenchReport::write() {
  const double ms = wall_ms();
  JsonWriter w;
  w.begin_object();
  w.key("bench").value(name_);
  w.key("schema_version").value(std::uint64_t{1});
  w.key("jobs").value(static_cast<std::uint64_t>(jobs_));
  w.key("points").value(points_);
  w.key("wall_ms").value(ms);
  w.key("points_per_sec")
      .value(ms > 0.0 ? static_cast<double>(points_) * 1e3 / ms : 0.0);
  // A failed getrusage probe reports 0 — omit the key entirely rather than
  // publish a bogus measurement (check_bench.py treats absence as
  // "unmeasured" and skips the RSS checks with a warning).
  if (const std::uint64_t rss = peak_rss_bytes(); rss > 0)
    w.key("peak_rss_bytes").value(rss);
  for (const auto& [key, value] : run_facts_) w.key(key).value(value);
  w.key("result_store");
  w.begin_object();
  w.key("hits").value(store_stats_.hits);
  w.key("misses").value(store_stats_.misses);
  w.key("stores").value(store_stats_.stores);
  w.key("corrupt_skipped").value(store_stats_.corrupt_skipped);
  w.key("loaded").value(store_stats_.loaded);
  w.key("poisoned_loaded").value(store_stats_.poisoned_loaded);
  w.key("poison_hits").value(store_stats_.poison_hits);
  w.key("poison_stores").value(store_stats_.poison_stores);
  w.end_object();
  // Failure manifest + sweep counters. Green runs report an empty array and
  // failed = 0 — check_bench.py's validate asserts exactly that unless told
  // --allow-failures.
  std::uint64_t quarantined = 0;
  for (const ManifestEntry& e : failures_)
    if (e.quarantined) ++quarantined;
  const std::uint64_t failed =
      static_cast<std::uint64_t>(failures_.size());
  w.key("sweep");
  w.begin_object();
  w.key("completed").value(points_ > failed ? points_ - failed : 0);
  w.key("failed").value(failed);
  w.key("quarantined").value(quarantined);
  w.key("batch_size").value(static_cast<std::uint64_t>(sweep_batch_));
  w.key("batched").value(sweep_batched_);
  w.end_object();
  w.key("failures");
  w.begin_array();
  for (const ManifestEntry& e : failures_) {
    w.begin_object();
    w.key("point").value(e.point);
    w.key("error_type").value(e.error_type);
    w.key("message").value(e.message);
    w.key("quarantined").value(e.quarantined);
    w.end_object();
  }
  w.end_array();
  w.key("results");
  w.begin_object();
  for (const auto& [key, value] : results_) w.key(key).value(value);
  w.end_object();
  w.end_object();

  const std::string filename = "BENCH_" + name_ + ".json";
  const bool ok = write_json_results(w, filename);
  if (ok) {
    std::printf("[bench] %s (jobs=%u, %.0f ms, %.2f points/s)\n",
                results_path(filename).c_str(), jobs_, ms,
                ms > 0.0 ? static_cast<double>(points_) * 1e3 / ms : 0.0);
  } else {
    std::printf("[bench] failed to write %s\n", results_path(filename).c_str());
  }
  return ok;
}

}  // namespace mobcache
