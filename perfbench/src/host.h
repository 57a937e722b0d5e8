// Host fingerprint printed with every result, so a number can be traced to
// the machine and build that produced it.
#pragma once

#include <string>

namespace perfbench {

struct Host {
  int nproc = 0;            ///< CPUs this process may run on
  std::string cpu_model;    ///< CPUID brand string
  std::string simd_tier;    ///< common/simd.h tier compiled in
  std::string build_type;   ///< CMake build type of the benchmark tree
  int pool_width = 0;       ///< effective common::parallel pool width
};

/// Reads the fingerprint; starts the work pool at its default width.
[[nodiscard]] Host host_fingerprint();

/// One-line JSON object of `host`.
[[nodiscard]] std::string to_json(const Host& host);

}  // namespace perfbench
