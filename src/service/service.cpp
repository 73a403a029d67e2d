#include "service/service.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/atomic_file.hpp"
#include "common/error.hpp"
#include "exp/fleet.hpp"
#include "exp/parallel.hpp"
#include "exp/runner.hpp"
#include "obs/trace_export.hpp"
#include "sim/batch.hpp"
#include "trace/trace_stream.hpp"
#include "workload/scenario.hpp"

namespace mobcache {

namespace fs = std::filesystem;

MobcacheDaemon::MobcacheDaemon(ServiceConfig cfg)
    : cfg_(std::move(cfg)),
      cancel_(cfg_.cancel != nullptr ? cfg_.cancel : &global_cancel_token()) {
  if (cfg_.dir.empty())
    throw std::runtime_error("mobcached: service directory required");
  std::error_code ec;
  for (const std::string& d :
       {inbox_dir(), outbox_dir(), quarantine_dir()}) {
    fs::create_directories(d, ec);
    if (!fs::is_directory(d, ec))
      throw std::runtime_error("mobcached: cannot create '" + d + "'");
  }
  // A killed publish leaves a `.tmp-*` orphan next to its target; the
  // rename never happened, so the file it was building will be re-published
  // anyway.
  for (const auto& entry : fs::directory_iterator(outbox_dir(), ec)) {
    if (entry.path().filename().string().rfind(".tmp-", 0) == 0)
      fs::remove(entry.path(), ec);
  }
  if (!cfg_.store_dir.empty())
    store_ = std::make_unique<ResultStore>(cfg_.store_dir);
}

std::string MobcacheDaemon::inbox_dir() const {
  return (fs::path(cfg_.dir) / "inbox").string();
}
std::string MobcacheDaemon::outbox_dir() const {
  return (fs::path(cfg_.dir) / "outbox").string();
}
std::string MobcacheDaemon::quarantine_dir() const {
  return (fs::path(cfg_.dir) / "quarantine").string();
}
std::string MobcacheDaemon::metrics_path() const {
  return (fs::path(cfg_.dir) / "metrics.json").string();
}

int MobcacheDaemon::run() {
  using clock = std::chrono::steady_clock;
  publish_metrics();
  auto last_publish = clock::now();
  auto idle_since = last_publish;
  for (;;) {
    cancel_->check();
    const std::size_t handled = scan_once();
    const auto now = clock::now();
    if (handled > 0) idle_since = now;
    if (cfg_.once && handled == 0) break;
    if (now - last_publish >=
        std::chrono::milliseconds(cfg_.epoch_ms)) {
      publish_metrics();
      last_publish = now;
    }
    if (handled == 0) {
      if (cfg_.idle_exit_ms != 0 &&
          now - idle_since >= std::chrono::milliseconds(cfg_.idle_exit_ms))
        break;
      std::this_thread::sleep_for(std::chrono::milliseconds(cfg_.poll_ms));
    }
  }
  publish_metrics();
  return 0;
}

std::size_t MobcacheDaemon::scan_once() {
  std::error_code ec;
  std::vector<std::string> names;
  for (const auto& entry : fs::directory_iterator(inbox_dir(), ec)) {
    const std::string name = entry.path().filename().string();
    // Dotfiles cover in-flight `.tmp-*` staging by producers that stage
    // inside the inbox; the rename into a visible name is the submission.
    if (name.empty() || name[0] == '.') continue;
    if (entry.path().extension() != ".jsonl") continue;
    names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  for (const std::string& name : names) {
    cancel_->check();
    process_file((fs::path(inbox_dir()) / name).string(), name);
  }
  return names.size();
}

void MobcacheDaemon::process_file(const std::string& path,
                                  const std::string& name) {
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    bytes = buf.str();
  }

  std::string responses;
  bool poison = false;
  if (bytes.empty() || bytes.back() != '\n') {
    // A producer that renames complete files in can never submit this; a
    // torn file means the submission contract was violated (copy instead of
    // rename, or a truncating writer). Quarantine, don't guess.
    ++stats_.requests_seen;
    ++stats_.requests_rejected;
    responses = error_response_line(
                    name, "trace",
                    "torn request file (missing trailing newline)") +
                "\n";
    poison = true;
  } else {
    std::size_t start = 0;
    while (start < bytes.size()) {
      const std::size_t nl = bytes.find('\n', start);
      const std::string line = bytes.substr(start, nl - start);
      start = nl + 1;
      if (line.empty()) continue;
      cancel_->check();
      ++stats_.requests_seen;
      const ParsedRequestLine parsed = parse_request_line(line);
      if (!parsed.request) {
        ++stats_.requests_rejected;
        responses += error_response_line(
                         parsed.id.empty() ? name : parsed.id, "config",
                         parsed.error) +
                     "\n";
        poison = true;
        continue;
      }
      active_ = 1;
      try {
        responses += run_request(*parsed.request);
        active_ = 0;
        ++stats_.requests_served;
      } catch (...) {
        active_ = 0;
        const std::exception_ptr e = std::current_exception();
        // Cancellation is a daemon-level event: leave the request file in
        // the inbox (the restart re-serves it from warm store hits) and let
        // guarded_main turn the drain into exit 75.
        if (is_cancellation(e)) std::rethrow_exception(e);
        ++stats_.requests_rejected;
        responses += error_response_line(parsed.request->id,
                                         error_type_of(e),
                                         error_message_of(e)) +
                     "\n";
        poison = true;
      }
    }
  }

  // Publish the response *before* consuming the request: a crash between
  // the two re-runs the file against the warm store and renames identical
  // bytes over this response. The reverse order would lose the request.
  atomic_publish((fs::path(outbox_dir()) / name).string(), responses,
                 "resp-" + std::to_string(++publish_counter_));
  std::error_code ec;
  if (poison) {
    fs::rename(path, fs::path(quarantine_dir()) / name, ec);
    if (ec) fs::remove(path, ec);
    ++stats_.files_quarantined;
  } else {
    fs::remove(path, ec);
  }
  ++stats_.files_served;
}

std::string MobcacheDaemon::run_request(const ServiceRequest& rq) {
  if (rq.kind == ServiceRequest::Kind::Fleet) {
    FleetConfig fc;
    if (rq.mean_accesses != 0)
      fc.mix = PopulationModel::default_mix(rq.mean_accesses);
    fc.sessions = rq.sessions;
    fc.seed = rq.seed;
    fc.scheme = rq.fleet_scheme;
    fc.jobs = cfg_.jobs;
    fc.sim.point_deadline_ms = rq.deadline_ms;
    fc.sim.cancel = cancel_;
    const FleetResult fr = run_fleet(fc);
    return fleet_response_line(rq.id, rq.fleet_scheme, fr) + "\n";
  }

  // The same execution path as `mobcache_simrun` plain mode: both run
  // scheme_design() specs through ExperimentRunner::run_designs_outcomes,
  // so one store serves both producers with the same keys and bytes.
  ExperimentRunner runner(rq.apps, rq.records, rq.seed);
  runner.jobs = effective_jobs(cfg_.jobs);
  runner.result_store = store_.get();
  runner.sim_options.point_deadline_ms = rq.deadline_ms;
  runner.sim_options.cancel = cancel_;
  const std::vector<SchemeSuiteResult> results =
      runner.run_schemes(rq.schemes);
  std::string out;
  for (const SchemeSuiteResult& s : results) {
    for (const SimResult& r : s.per_workload)
      out += ok_response_line(rq.id, r.scheme, r.workload,
                              result_to_record_json(r)) +
             "\n";
  }
  return out;
}

void MobcacheDaemon::publish_metrics() {
  MetricRegistry reg;
  reg.counter("service.queued").add(stats_.requests_seen);
  reg.counter("service.served").add(stats_.requests_served);
  reg.counter("service.rejected").add(stats_.requests_rejected);
  reg.counter("service.files").add(stats_.files_served);
  reg.counter("service.quarantined").add(stats_.files_quarantined);
  reg.gauge("service.active").set(static_cast<double>(active_));
  if (store_) {
    const ResultStoreStats st = store_->stats();
    // Point-level hits ARE the warm-request signal: a fully warm request
    // touches only cached cells.
    reg.counter("service.warm_hits").add(st.hits);
    reg.counter("result_store.hits").add(st.hits);
    reg.counter("result_store.misses").add(st.misses);
    reg.counter("result_store.stores").add(st.stores);
    reg.counter("result_store.corrupt_skipped").add(st.corrupt_skipped);
    reg.counter("result_store.loaded").add(st.loaded);
    reg.counter("result_store.poisoned_loaded").add(st.poisoned_loaded);
    reg.counter("result_store.poison_hits").add(st.poison_hits);
    reg.counter("result_store.poison_stores").add(st.poison_stores);
  }
  const StreamCounters stream = stream_counters();
  reg.counter("stream.chunks_generated").add(stream.chunks_generated);
  reg.counter("stream.chunk_reuse_hits").add(stream.chunk_reuse_hits);
  reg.counter("stream.high_water_chunk_bytes")
      .add(stream.high_water_chunk_bytes);
  reg.counter("sim.front_end_passes").add(front_end_passes());
  const FleetCounters fleet = fleet_counters();
  reg.counter("fleet.sessions_simulated").add(fleet.sessions_simulated);
  reg.counter("fleet.session_records").add(fleet.session_records);
  reg.counter("fleet.shard_merges").add(fleet.shard_merges);
  atomic_publish(metrics_path(), metrics_json_string(reg) + "\n",
                 "metrics-" + std::to_string(++publish_counter_));
}

}  // namespace mobcache
