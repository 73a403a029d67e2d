#pragma once
/// \file scoped_dir.hpp
/// The tests' one scratch-directory idiom.
///
/// `ctest -j` runs every test case in its own process, and `--repeat` runs
/// it again while other cases are live, so a fixed path under /tmp lets one
/// case's cleanup delete another's files mid-write. ScopedDir keys the path
/// by process id and by the running test's full name, so it must be created
/// inside a test (a fixture member counts). The directory starts absent
/// (stale copies are removed; the test or the code under test creates it)
/// and is removed on destruction.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <system_error>

namespace mobcache {

class ScopedDir {
 public:
  explicit ScopedDir(const std::string& tag) {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name = "mobcache_" + tag + "_" + std::to_string(::getpid()) +
                       "_" + info->test_suite_name() + "_" + info->name();
    std::replace(name.begin(), name.end(), '/', '_');  // parameterized names
    path_ = std::filesystem::temp_directory_path() / name;
    std::filesystem::remove_all(path_);
  }
  ~ScopedDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ScopedDir(const ScopedDir&) = delete;
  ScopedDir& operator=(const ScopedDir&) = delete;

  const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
};

}  // namespace mobcache
