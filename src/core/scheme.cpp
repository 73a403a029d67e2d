#include "core/scheme.hpp"

#include <array>

namespace mobcache {

const char* scheme_name(SchemeKind k) {
  switch (k) {
    case SchemeKind::BaselineSram: return "Base-SRAM-2MB";
    case SchemeKind::ShrunkSram: return "Shrunk-SRAM-512KB";
    case SchemeKind::SharedStt: return "Shared-STT-2MB";
    case SchemeKind::DrowsySram: return "Drowsy-SRAM-2MB";
    case SchemeKind::VictimSram: return "Victim-SRAM-2MB";
    case SchemeKind::StaticPartSram: return "SP-SRAM";
    case SchemeKind::StaticPartMrstt: return "SP-MRSTT";
    case SchemeKind::DynamicSram: return "DP-SRAM";
    case SchemeKind::DynamicStt: return "DP-STT";
  }
  return "?";
}

namespace {

struct SchemeToken {
  std::string_view name;
  SchemeKind kind;
};

constexpr std::array<SchemeToken, 9> kSchemeTokens = {{
    {"base", SchemeKind::BaselineSram},
    {"shrunk", SchemeKind::ShrunkSram},
    {"sharedstt", SchemeKind::SharedStt},
    {"drowsy", SchemeKind::DrowsySram},
    {"victim", SchemeKind::VictimSram},
    {"sp", SchemeKind::StaticPartSram},
    {"spmrstt", SchemeKind::StaticPartMrstt},
    {"dp", SchemeKind::DynamicSram},
    {"dpstt", SchemeKind::DynamicStt},
}};

}  // namespace

std::optional<SchemeKind> parse_scheme_kind(std::string_view s) {
  for (const SchemeToken& t : kSchemeTokens) {
    if (s == t.name) return t.kind;
  }
  return std::nullopt;
}

const std::string& scheme_kind_names() {
  static const std::string names = [] {
    std::string out;
    for (const SchemeToken& t : kSchemeTokens) {
      if (!out.empty()) out += ' ';
      out += t.name;
    }
    return out;
  }();
  return names;
}

namespace {

CacheConfig shared_geometry(const char* name, std::uint64_t bytes,
                            std::uint32_t assoc, ReplKind repl,
                            bool xor_index = false) {
  CacheConfig c;
  c.name = name;
  c.size_bytes = bytes;
  c.assoc = assoc;
  c.repl = repl;
  c.xor_index = xor_index;
  return c;
}

/// Per-segment fault config with a derived seed, so the two arrays of a
/// partitioned design draw independent (but reproducible) fault streams.
FaultConfig derived_fault(const FaultConfig& f, std::uint64_t salt) {
  FaultConfig out = f;
  out.seed = f.seed + salt;
  return out;
}

}  // namespace

std::unique_ptr<L2Interface> build_scheme(SchemeKind kind,
                                          const SchemeParams& p) {
  switch (kind) {
    case SchemeKind::BaselineSram: {
      SharedL2Config c;
      c.cache = shared_geometry("L2", p.baseline_bytes, p.baseline_assoc,
                                p.repl, p.xor_index);
      c.tech = TechKind::Sram;
      c.fault = p.fault;
      return std::make_unique<SharedL2>(c);
    }
    case SchemeKind::ShrunkSram: {
      SharedL2Config c;
      c.cache =
          shared_geometry("L2", p.shrunk_bytes, p.shrunk_assoc, p.repl);
      c.tech = TechKind::Sram;
      c.fault = p.fault;
      return std::make_unique<SharedL2>(c);
    }
    case SchemeKind::SharedStt: {
      SharedL2Config c;
      c.cache = shared_geometry("L2", p.baseline_bytes, p.baseline_assoc,
                                p.repl);
      c.tech = TechKind::SttRam;
      c.retention = RetentionClass::Hi;
      c.refresh = p.refresh;
      c.bypass.enabled = p.stt_write_bypass;
      c.fault = p.fault;
      return std::make_unique<SharedL2>(c);
    }
    case SchemeKind::DrowsySram: {
      DrowsyL2Config c;
      c.cache = shared_geometry("L2", p.baseline_bytes, p.baseline_assoc,
                                p.repl);
      c.window = p.drowsy_window;
      return std::make_unique<DrowsyL2>(c);
    }
    case SchemeKind::VictimSram: {
      VictimCacheL2Config c;
      c.cache = shared_geometry("L2", p.baseline_bytes, p.baseline_assoc,
                                p.repl);
      c.victim_entries = 64;
      return std::make_unique<VictimCacheL2>(c);
    }
    case SchemeKind::StaticPartSram: {
      StaticPartitionConfig c;
      c.user = sram_segment(p.sp_user_bytes, p.sp_user_assoc);
      c.kernel = sram_segment(p.sp_kernel_bytes, p.sp_kernel_assoc);
      c.user.repl = c.kernel.repl = p.repl;
      c.user.fault = p.fault;
      c.kernel.fault = derived_fault(p.fault, 1);
      return std::make_unique<StaticPartitionedL2>(c);
    }
    case SchemeKind::StaticPartMrstt: {
      StaticPartitionConfig c = make_mrstt_config(
          p.sp_user_bytes, p.sp_user_assoc, p.mrstt_user, p.sp_kernel_bytes,
          p.sp_kernel_assoc, p.mrstt_kernel, p.refresh);
      c.user.repl = c.kernel.repl = p.repl;
      c.user.bypass.enabled = c.kernel.bypass.enabled = p.stt_write_bypass;
      c.user.fault = p.fault;
      c.kernel.fault = derived_fault(p.fault, 1);
      return std::make_unique<StaticPartitionedL2>(c);
    }
    case SchemeKind::DynamicSram:
    case SchemeKind::DynamicStt: {
      DynamicL2Config c;
      c.cache = shared_geometry("L2", p.baseline_bytes, p.baseline_assoc,
                                p.repl);
      c.tech = kind == SchemeKind::DynamicStt ? TechKind::SttRam
                                              : TechKind::Sram;
      c.retention = p.dp_retention;
      c.refresh = p.refresh;
      c.epoch_accesses = p.dp_epoch_accesses;
      c.controller.monitor = p.dp_monitor;
      c.controller.miss_slack = p.dp_miss_slack;
      c.fault = p.fault;
      return std::make_unique<DynamicPartitionedL2>(c);
    }
  }
  return nullptr;
}

std::vector<SchemeKind> headline_schemes() {
  return {SchemeKind::BaselineSram,    SchemeKind::ShrunkSram,
          SchemeKind::SharedStt,       SchemeKind::DrowsySram,
          SchemeKind::VictimSram,      SchemeKind::StaticPartSram,
          SchemeKind::StaticPartMrstt, SchemeKind::DynamicSram,
          SchemeKind::DynamicStt};
}

}  // namespace mobcache
