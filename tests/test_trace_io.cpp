#include "trace/trace_io.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "support/scoped_dir.hpp"

namespace mobcache {
namespace {

class TraceIoTest : public ::testing::Test {
 protected:
  void SetUp() override { std::filesystem::create_directories(tmp_.path()); }

  std::string path(const char* name) const {
    return (tmp_.path() / name).string();
  }

  ScopedDir tmp_{"trace_io"};
};

Trace sample_trace() {
  Trace t("roundtrip");
  for (int i = 0; i < 100; ++i) {
    Access a;
    const bool kernel = i % 3 == 0;
    a.addr = (kernel ? kKernelSpaceBase : 0) + static_cast<Addr>(i) * 64;
    a.type = static_cast<AccessType>(i % 3);
    a.mode = kernel ? Mode::Kernel : Mode::User;
    a.thread = static_cast<std::uint16_t>(i % 4);
    t.push(a);
  }
  return t;
}

TEST_F(TraceIoTest, RoundtripPreservesEverything) {
  const Trace original = sample_trace();
  ASSERT_TRUE(write_trace(original, path("a.mct")));

  const auto loaded = read_trace(path("a.mct"));
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->name(), "roundtrip");
  ASSERT_EQ(loaded->size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ((*loaded)[i].addr, original[i].addr);
    EXPECT_EQ((*loaded)[i].type, original[i].type);
    EXPECT_EQ((*loaded)[i].mode, original[i].mode);
    EXPECT_EQ((*loaded)[i].thread, original[i].thread);
  }
}

TEST_F(TraceIoTest, EmptyTraceRoundtrips) {
  Trace t("empty");
  ASSERT_TRUE(write_trace(t, path("e.mct")));
  const auto loaded = read_trace(path("e.mct"));
  ASSERT_TRUE(loaded.has_value());
  EXPECT_TRUE(loaded->empty());
  EXPECT_EQ(loaded->name(), "empty");
}

TEST_F(TraceIoTest, MissingFileIsNullopt) {
  EXPECT_FALSE(read_trace(path("does_not_exist.mct")).has_value());
}

TEST_F(TraceIoTest, BadMagicRejected) {
  std::ofstream f(path("bad.mct"), std::ios::binary);
  const char garbage[64] = "this is not a mobcache trace file at all";
  f.write(garbage, sizeof garbage);
  f.close();
  EXPECT_FALSE(read_trace(path("bad.mct")).has_value());
}

TEST_F(TraceIoTest, TruncatedFileRejected) {
  ASSERT_TRUE(write_trace(sample_trace(), path("t.mct")));
  const auto full = std::filesystem::file_size(path("t.mct"));
  std::filesystem::resize_file(path("t.mct"), full - 10);
  EXPECT_FALSE(read_trace(path("t.mct")).has_value());
}

TEST_F(TraceIoTest, ModeInconsistentFileRejected) {
  // A record claiming kernel mode at a user address must not load: such a
  // trace would silently break every partitioned design.
  Trace t("bad-mode");
  Access a;
  a.addr = 0x1000;  // user half
  a.mode = Mode::Kernel;
  t.push(a);
  ASSERT_TRUE(write_trace(t, path("m.mct")));
  EXPECT_FALSE(read_trace(path("m.mct")).has_value());
}

TEST_F(TraceIoTest, WriteToUnwritablePathFails) {
  EXPECT_FALSE(write_trace(sample_trace(), "/nonexistent_dir_xyz/t.mct"));
}

// ---- typed-diagnostic API ------------------------------------------------

/// Overwrites `len` bytes at `off` in an existing file.
void patch_file(const std::string& path, std::uint64_t off, const void* bytes,
                std::size_t len) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(f);
  f.seekp(static_cast<std::streamoff>(off));
  f.write(static_cast<const char*>(bytes), static_cast<std::streamsize>(len));
}

TEST_F(TraceIoTest, DetailedMissingFile) {
  const TraceReadResult r = read_trace_detailed(path("nope.mct"));
  EXPECT_EQ(r.status, TraceIoStatus::FileNotFound);
  EXPECT_FALSE(r.trace.has_value());
  EXPECT_FALSE(r.detail.empty());
}

TEST_F(TraceIoTest, DetailedZeroLengthFile) {
  std::ofstream(path("zero.mct"), std::ios::binary).close();
  const TraceReadResult r = read_trace_detailed(path("zero.mct"));
  EXPECT_EQ(r.status, TraceIoStatus::CorruptHeader);
  EXPECT_FALSE(r.ok());
}

TEST_F(TraceIoTest, DetailedBadMagic) {
  std::ofstream f(path("bad.mct"), std::ios::binary);
  const char garbage[64] = "this is not a mobcache trace file at all";
  f.write(garbage, sizeof garbage);
  f.close();
  EXPECT_EQ(read_trace_detailed(path("bad.mct")).status,
            TraceIoStatus::BadMagic);
}

TEST_F(TraceIoTest, DetailedBogusCountRejectedBeforeAllocation) {
  ASSERT_TRUE(write_trace(sample_trace(), path("c.mct")));
  // count lives after magic(8) + name_len(4) + name("roundtrip" = 9).
  const std::uint64_t huge = 1ull << 40;
  patch_file(path("c.mct"), 8 + 4 + 9, &huge, sizeof huge);
  const TraceReadResult r = read_trace_detailed(path("c.mct"));
  EXPECT_EQ(r.status, TraceIoStatus::TruncatedRecords);
  EXPECT_NE(r.detail.find("promises"), std::string::npos);
}

TEST_F(TraceIoTest, DetailedTruncatedTail) {
  ASSERT_TRUE(write_trace(sample_trace(), path("t2.mct")));
  const auto full = std::filesystem::file_size(path("t2.mct"));
  std::filesystem::resize_file(path("t2.mct"), full - 10);
  EXPECT_EQ(read_trace_detailed(path("t2.mct")).status,
            TraceIoStatus::TruncatedRecords);
}

TEST_F(TraceIoTest, DetailedBadRecordFields) {
  ASSERT_TRUE(write_trace(sample_trace(), path("r.mct")));
  // Record 0 starts at header end (8 + 4 + 9 + 8); its type byte is 16 in.
  const std::uint8_t bogus = 9;
  patch_file(path("r.mct"), 8 + 4 + 9 + 8 + 16, &bogus, sizeof bogus);
  EXPECT_EQ(read_trace_detailed(path("r.mct")).status,
            TraceIoStatus::BadRecord);
}

TEST_F(TraceIoTest, DetailedInconsistentModes) {
  Trace t("bm");
  Access a;
  a.addr = 0x1000;  // user half
  a.mode = Mode::Kernel;
  t.push(a);
  ASSERT_TRUE(write_trace(t, path("m2.mct")));
  EXPECT_EQ(read_trace_detailed(path("m2.mct")).status,
            TraceIoStatus::InconsistentModes);
}

TEST_F(TraceIoTest, DetailedOkCarriesTrace) {
  const Trace original = sample_trace();
  ASSERT_TRUE(write_trace(original, path("ok.mct")));
  const TraceReadResult r = read_trace_detailed(path("ok.mct"));
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r.trace.has_value());
  EXPECT_EQ(r.trace->size(), original.size());
  EXPECT_EQ(to_string(r.status), std::string("ok"));
}

}  // namespace
}  // namespace mobcache
