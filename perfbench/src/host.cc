#include "host.h"

#include <sched.h>

#include <cstring>
#include <thread>

#include "common/parallel.h"
#include "common/simd.h"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

std::string cpu_brand() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_leaf = __get_cpuid_max(0x80000000U, nullptr);
  if (max_leaf >= 0x80000004U) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002U + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                  &regs[4 * i + 3]);
    }
    char brand[sizeof regs + 1] = {};
    std::memcpy(brand, regs, sizeof regs);
    std::string text(brand);
    const auto first = text.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : text.substr(first);
  }
#endif
  return "unknown";
}

int cpus_available() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::thread::hardware_concurrency());
}

std::string quoted(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

}  // namespace

Host host_fingerprint() {
  Host host;
  host.nproc = cpus_available();
  host.cpu_model = cpu_brand();
  host.simd_tier = shmcaffe::common::simd::dispatch_name();
  host.build_type = PERFBENCH_BUILD_TYPE;
  host.pool_width = shmcaffe::common::parallel::thread_count();
  return host;
}

std::string to_json(const Host& host) {
  return "{\"nproc\": " + std::to_string(host.nproc) + ", \"cpu_model\": " +
         quoted(host.cpu_model) + ", \"simd_tier\": " + quoted(host.simd_tier) +
         ", \"build_type\": " + quoted(host.build_type) +
         ", \"pool_width\": " + std::to_string(host.pool_width) + "}";
}

}  // namespace perfbench
