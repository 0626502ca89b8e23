// perfbench: the repository benchmark. One run measures one workload.
//
//   perfbench --workload <score_mixed_disk|offline_day>
//             --seed <n> --seconds <s> --trace <0|1> --workdir <dir>
//             [--commit <id>]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
// (a separate run; see README.md). The last line of standard output is
// the JSON result; the line before it stamps the host and build. A failed
// output check makes the run exit 1 after printing its result.

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "loadgen.h"
#include "report.h"
#include "workloads.h"

namespace {

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) < 0x80000004) return "unknown";
  for (unsigned int leaf = 0; leaf < 3; ++leaf) {
    __get_cpuid(0x80000002 + leaf, &regs[leaf * 4], &regs[leaf * 4 + 1], &regs[leaf * 4 + 2],
                &regs[leaf * 4 + 3]);
  }
  std::string model(reinterpret_cast<const char*>(regs), sizeof(regs));
  model = model.substr(0, model.find('\0'));
  const auto first = model.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : model.substr(first);
#else
  return "unknown";
#endif
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

[[noreturn]] void Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> --workdir <dir> [--commit <id>]\n",
               message);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Progress("start");
  perfbench::RunArgs args;
  std::string commit = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else if (flag == "--commit") {
      commit = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  const bool score = args.workload == "score_mixed_disk";
  if (!score && args.workload != "offline_day") Usage("unknown workload");
  if (!(args.seconds > 0.0) || args.workdir.empty()) Usage("bad --seconds or --workdir");

  const perfbench::BuildStamp build = perfbench::ThisBuild();
  const titant::Status recordable = perfbench::CheckRecordableBuild(build);
  if (!recordable.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", recordable.ToString().c_str());
    return 3;
  }

  std::filesystem::remove_all(args.workdir);
  std::filesystem::create_directories(args.workdir);
  perfbench::Report report(args.trace ? perfbench::PerLayerMetrics()
                                      : perfbench::EndToEndMetrics());
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);
  std::fflush(stdout);
  const perfbench::Tally tally = score ? perfbench::RunScoreWorkload(args, &report)
                                       : perfbench::RunOfflineWorkload(args, &report);
  std::filesystem::remove_all(args.workdir);

  std::printf("%s", report.Table().c_str());
  for (const std::string& failure : report.failures()) {
    std::printf("CHECK FAILED: %s\n", failure.c_str());
  }
  std::printf("stamp: {\"nproc\": %u, \"cpu\": %s, \"build_type\": %s, \"compiler\": %s, "
              "\"commit\": %s}\n",
              std::thread::hardware_concurrency(), JsonString(CpuModel()).c_str(),
              JsonString(build.build_type).c_str(), JsonString(build.compiler).c_str(),
              JsonString(commit).c_str());
  std::printf("%s\n", report.ResultJson(tally.attempted, tally.failed).c_str());
  return report.correct() ? 0 : 1;
}
