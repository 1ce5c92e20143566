// Host-side measurement helpers and provenance.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <string>
#include <thread>

#include "e2ebench.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace e2ebench {

double wall_now() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch()).count();
}

double cpu_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double peak_rss_mb() {
  // VmHWM is the high-water mark of this process's own address space.
  // ru_maxrss is only the fallback: Linux folds the RSS of the image a
  // process exec'd from (here: the Python launcher) into it.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

namespace {

// CPU brand string from the cpuid instruction (no file access).
std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u) return "unknown";
  for (unsigned int i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  }
  std::string s(reinterpret_cast<const char*>(regs), sizeof regs);
  s.erase(std::find(s.begin(), s.end(), '\0'), s.end());
  const auto b = s.find_first_not_of(' ');
  const auto e = s.find_last_not_of(' ');
  return b == std::string::npos ? "unknown" : s.substr(b, e - b + 1);
#else
  return "unknown";
#endif
}

}  // namespace

Provenance host_provenance(const std::string& revision) {
  Provenance p;
  p.nproc = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  p.cpu_model = cpu_model();
  p.build_type = E2EBENCH_BUILD_TYPE;
  p.cxx_flags = E2EBENCH_CXX_FLAGS;
#ifdef __OPTIMIZE__
  p.optimized = true;
#endif
  p.revision = revision.empty() ? "unknown" : revision;
  return p;
}

}  // namespace e2ebench
