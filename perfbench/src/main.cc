// Helper binary of the benchmark (perfbench/run.py drives it):
//
//   dmbench gen      WORKLOAD SEED DIR          write the workload's inputs
//   dmbench check    WORKLOAD SEED DIR THREADS  ground-truth check (JSON)
//   dmbench replay   WORKLOAD DIR THREADS TOOL_WALL_S
//                                               traced in-process replay
//   dmbench rss-probe MIB on|o1 [BALLAST_MIB]   RSS separation probe
//
// Each command prints one JSON object as its last line of stdout.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "check.h"
#include "replay.h"
#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: dmbench gen WORKLOAD SEED DIR\n"
               "       dmbench check WORKLOAD SEED DIR THREADS\n"
               "       dmbench replay WORKLOAD DIR THREADS TOOL_WALL_S\n"
               "       dmbench rss-probe MIB on|o1 [BALLAST_MIB]\n");
  return 2;
}

bool KnownWorkload(const std::string& w) {
  return w == dmbench::kBatchMixed || w == dmbench::kLakeGithub ||
         w == dmbench::kFollowDrift;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string cmd = argv[1];
  if (cmd == "rss-probe" && (argc == 4 || argc == 5)) {
    return dmbench::RssProbe(
        std::strtoul(argv[2], nullptr, 10), std::string(argv[3]) == "on",
        argc == 5 ? std::strtoul(argv[4], nullptr, 10) : 0);
  }
  if (argc < 5 || !KnownWorkload(argv[2])) return Usage();
  const std::string workload = argv[2];
  if (cmd == "replay" && argc == 6) {
    return dmbench::Replay(workload, argv[3], std::atoi(argv[4]),
                           std::strtod(argv[5], nullptr));
  }
  const uint64_t seed = std::strtoull(argv[3], nullptr, 10);
  const std::string dir = argv[4];
  if (cmd == "gen" && argc == 5) {
    const datamaran::Status st = dmbench::WriteInputs(workload, seed, dir);
    if (!st.ok()) {
      std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("{\"ok\": true}\n");
    return 0;
  }
  if (cmd == "check" && argc == 6) {
    const dmbench::CheckReport report =
        dmbench::CheckWorkload(workload, seed, dir, std::atoi(argv[5]));
    std::printf("%s\n", dmbench::CheckReportJson(report).c_str());
    return 0;
  }
  return Usage();
}
