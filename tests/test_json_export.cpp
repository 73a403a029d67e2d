#include "exp/json_export.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <cmath>
#include <fstream>

#include "support/scoped_dir.hpp"

namespace mobcache {
namespace {

TEST(Json, EscapeCoversSpecials) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
}

TEST(Json, WriterBuildsNestedDocument) {
  JsonWriter w;
  w.begin_object();
  w.key("name").value("test");
  w.key("pi").value(3.25);
  w.key("count").value(std::uint64_t{42});
  w.key("ok").value(true);
  w.key("items");
  w.begin_array();
  w.value(std::uint64_t{1});
  w.value(std::uint64_t{2});
  w.begin_object();
  w.key("nested").value("yes");
  w.end_object();
  w.end_array();
  w.end_object();
  EXPECT_EQ(w.str(),
            "{\"name\":\"test\",\"pi\":3.25,\"count\":42,\"ok\":true,"
            "\"items\":[1,2,{\"nested\":\"yes\"}]}");
}

TEST(Json, NonFiniteDoublesBecomeNull) {
  JsonWriter w;
  w.begin_array();
  w.value(std::nan(""));
  w.value(1.0 / 0.0);
  w.end_array();
  EXPECT_EQ(w.str(), "[null,null]");
}

TEST(Json, DeepNestingStaysBalanced) {
  // The writer's nesting stack is unbounded; a pathological document must
  // still come out structurally valid.
  constexpr int kDepth = 256;
  JsonWriter w;
  for (int i = 0; i < kDepth; ++i) {
    w.begin_object();
    w.key("d");
    w.begin_array();
  }
  w.value(std::uint64_t{7});
  for (int i = 0; i < kDepth; ++i) {
    w.end_array();
    w.end_object();
  }
  const std::string& s = w.str();
  EXPECT_EQ(std::count(s.begin(), s.end(), '{'), kDepth);
  EXPECT_EQ(std::count(s.begin(), s.end(), '}'), kDepth);
  EXPECT_EQ(std::count(s.begin(), s.end(), '['), kDepth);
  EXPECT_EQ(std::count(s.begin(), s.end(), ']'), kDepth);
  EXPECT_NE(s.find("[7]"), std::string::npos);
}

TEST(Json, EmptyContainers) {
  JsonWriter w;
  w.begin_object();
  w.key("a");
  w.begin_array();
  w.end_array();
  w.key("o");
  w.begin_object();
  w.end_object();
  w.end_object();
  EXPECT_EQ(w.str(), "{\"a\":[],\"o\":{}}");
}

TEST(Json, SimResultSerializes) {
  SimResult r;
  r.workload = "launcher";
  r.scheme = "test \"scheme\"";
  r.records = 1000;
  r.cycles = 2500;
  r.cpi = 2.5;
  r.l2_energy.leakage_nj = 123.5;
  JsonWriter w;
  write_sim_result(w, r);
  const std::string& s = w.str();
  EXPECT_NE(s.find("\"workload\":\"launcher\""), std::string::npos);
  EXPECT_NE(s.find("\"scheme\":\"test \\\"scheme\\\"\""), std::string::npos);
  EXPECT_NE(s.find("\"cycles\":2500"), std::string::npos);
  EXPECT_NE(s.find("\"leakage\":123.5"), std::string::npos);
  // Balanced braces.
  EXPECT_EQ(std::count(s.begin(), s.end(), '{'),
            std::count(s.begin(), s.end(), '}'));
}

TEST(Json, ExperimentRoundtripsThroughFile) {
  SchemeSuiteResult base;
  base.name = "Base";
  base.norm_cache_energy = 1.0;
  base.per_workload.resize(1);
  base.per_workload[0].workload = "app";

  const ScopedDir tmp("json");
  setenv("MOBCACHE_RESULTS_DIR", tmp.path().c_str(), 1);
  ASSERT_TRUE(write_experiment_json("E0", {base}, "e0.json"));
  std::ifstream f(tmp.path() / "e0.json");
  ASSERT_TRUE(f.good());
  std::string content((std::istreambuf_iterator<char>(f)),
                      std::istreambuf_iterator<char>());
  EXPECT_NE(content.find("\"experiment\":\"E0\""), std::string::npos);
  EXPECT_NE(content.find("\"norm_cache_energy\":1"), std::string::npos);
  unsetenv("MOBCACHE_RESULTS_DIR");
}

}  // namespace
}  // namespace mobcache
