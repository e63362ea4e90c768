// A temporary file path under the system temp directory, removed when the
// holder goes out of scope.
#pragma once

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <string>

namespace dlscale::testing {

// ctest runs each gtest case as its own process, and the scalar/avx2
// instantiations and the scalar_env reruns of one test can run
// concurrently; the filename must be unique per process (and per use
// within a process) or one process's TempFile destructor deletes, or its
// writes overwrite, the file another is still using.
struct TempFile {
  std::string path;
  explicit TempFile(const std::string& name) {
    static std::atomic<unsigned> counter{0};
    path = (std::filesystem::temp_directory_path() /
            ("dlscale_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter.fetch_add(1)) + "_" + name))
               .string();
  }
  ~TempFile() { std::remove(path.c_str()); }
  TempFile(const TempFile&) = delete;
  TempFile& operator=(const TempFile&) = delete;
};

}  // namespace dlscale::testing
