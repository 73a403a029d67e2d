#include "service/protocol.hpp"

#include "common/flat_json.hpp"
#include "common/json_writer.hpp"

namespace mobcache {

namespace {

std::vector<std::string> split_commas(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t comma = s.find(',', start);
    if (comma == std::string::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

std::optional<AppId> parse_app(const std::string& name) {
  for (AppId id : all_apps())
    if (name == app_name(id)) return id;
  return std::nullopt;
}

/// Optional unsigned field: absent keeps the default, present-but-invalid
/// (quoted, negative, non-numeric) is a hard reject.
bool read_u64_field(const FlatParser& f, const char* key, std::uint64_t& slot,
                    std::string& error) {
  if (!f.has(key)) return true;
  if (f.get_u64(key, slot)) return true;
  error = std::string("\"") + key + "\" must be a non-negative integer";
  return false;
}

}  // namespace

ParsedRequestLine parse_request_line(const std::string& line) {
  ParsedRequestLine out;
  FlatParser f;
  if (!f.parse(line)) {
    out.error = "malformed request (flat JSON object expected)";
    return out;
  }
  std::string id;
  if (!f.get_str("id", id) || id.empty()) {
    out.error = "request needs a non-empty string \"id\"";
    return out;
  }
  out.id = id;

  ServiceRequest rq;
  rq.id = id;
  std::string kind = "sim";
  if (f.has("kind") && !f.get_str("kind", kind)) {
    out.error = "\"kind\" must be a string";
    return out;
  }
  if (kind == "sim") {
    rq.kind = ServiceRequest::Kind::Sim;
  } else if (kind == "fleet") {
    rq.kind = ServiceRequest::Kind::Fleet;
  } else {
    out.error = "unknown kind '" + kind + "' (sim|fleet)";
    return out;
  }

  if (!read_u64_field(f, "records", rq.records, out.error) ||
      !read_u64_field(f, "seed", rq.seed, out.error) ||
      !read_u64_field(f, "deadline_ms", rq.deadline_ms, out.error) ||
      !read_u64_field(f, "sessions", rq.sessions, out.error) ||
      !read_u64_field(f, "mean_accesses", rq.mean_accesses, out.error))
    return out;
  if (rq.records == 0) {
    out.error = "\"records\" must be >= 1";
    return out;
  }

  std::string scheme =
      rq.kind == ServiceRequest::Kind::Fleet ? "dpstt" : "all";
  if (f.has("scheme") && !f.get_str("scheme", scheme)) {
    out.error = "\"scheme\" must be a string";
    return out;
  }

  if (rq.kind == ServiceRequest::Kind::Sim) {
    if (scheme == "all") {
      rq.schemes = headline_schemes();
    } else if (const auto k = parse_scheme_kind(scheme)) {
      // Mirror simrun: a named scheme always runs against the baseline.
      rq.schemes = {SchemeKind::BaselineSram};
      if (*k != SchemeKind::BaselineSram) rq.schemes.push_back(*k);
    } else {
      out.error = "unknown scheme '" + scheme + "' (expected all or one of: " +
                  scheme_kind_names() + ")";
      return out;
    }
    std::string apps;
    if (!f.get_str("apps", apps) || apps.empty()) {
      out.error = "sim request needs \"apps\" (comma-separated app names)";
      return out;
    }
    for (const std::string& name : split_commas(apps)) {
      if (const auto app = parse_app(name)) {
        rq.apps.push_back(*app);
      } else {
        out.error = "unknown app '" + name + "'";
        return out;
      }
    }
  } else {
    if (const auto k = parse_scheme_kind(scheme)) {
      rq.fleet_scheme = *k;
    } else {
      out.error = "unknown scheme '" + scheme + "' (expected one of: " +
                  scheme_kind_names() + ")";
      return out;
    }
    if (rq.sessions == 0) {
      out.error = "\"sessions\" must be >= 1";
      return out;
    }
  }

  out.request = std::move(rq);
  return out;
}

std::string ok_response_line(const std::string& id, const std::string& scheme,
                             const std::string& workload,
                             const std::string& result_payload) {
  // Hand-assembled so the record payload is embedded byte-for-byte —
  // JsonWriter would re-serialize it.
  std::string out = "{\"id\":\"" + json_escape(id) + "\",\"scheme\":\"" +
                    json_escape(scheme) + "\",\"workload\":\"" +
                    json_escape(workload) + "\",\"result\":";
  out += result_payload;
  out += '}';
  return out;
}

std::string fleet_response_line(const std::string& id, SchemeKind scheme,
                                const FleetResult& fleet) {
  JsonWriter w;
  w.begin_object();
  w.key("id").value(id);
  w.key("kind").value("fleet");
  w.key("scheme").value(scheme_name(scheme));
  w.key("sessions").value(fleet.acc.sessions);
  w.key("records").value(fleet.acc.records);
  w.key("shards").value(static_cast<std::uint64_t>(fleet.shards));
  const auto metric = [&](const char* name, const FleetMetric& m) {
    w.key(name);
    w.begin_object();
    w.key("mean").value(m.stat.mean());
    w.key("p50").value(m.sketch.quantile(0.5));
    w.key("p95").value(m.sketch.quantile(0.95));
    w.key("p99").value(m.sketch.quantile(0.99));
    w.end_object();
  };
  metric("cache_energy_nj", fleet.acc.cache_energy_nj);
  metric("total_energy_nj", fleet.acc.total_energy_nj);
  metric("cpi", fleet.acc.cpi);
  w.end_object();
  return w.str();
}

std::string error_response_line(const std::string& id,
                                const std::string& error_type,
                                const std::string& message) {
  return "{\"id\":\"" + json_escape(id) + "\",\"error_type\":\"" +
         json_escape(error_type) + "\",\"message\":\"" +
         json_escape(message) + "\"}";
}

std::optional<std::string> response_result_payload(const std::string& line) {
  static const std::string kMarker = "\"result\":";
  const std::size_t pos = line.find(kMarker);
  if (pos == std::string::npos) return std::nullopt;
  const std::size_t start = pos + kMarker.size();
  // The payload is the flat object running to the line's closing brace.
  if (line.empty() || line.back() != '}' || start >= line.size() - 1)
    return std::nullopt;
  return line.substr(start, line.size() - 1 - start);
}

}  // namespace mobcache
