// Entry point of the end-to-end benchmark binary. One invocation runs one
// workload in this process:
//
//   pixels_e2e --workload <tpch_engine|served_mix|control_plane>
//              --seed <n> --seconds <n> --trace <0|1> [--span-out <path>]
//
// It prints every metric by name, unit and direction, then one JSON line;
// the exit code is non-zero on any wrong result or failed operation.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/thread_pool.h"
#include "harness.h"

namespace {

bool ParseArgs(int argc, char** argv, e2e::Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      args->seconds = static_cast<int>(std::strtol(value.c_str(), &end, 10));
      if (*end != '\0' || args->seconds < 1) return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (key == "--span-out") {
      args->span_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty();
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <tpch_engine|served_mix|control_plane> "
                 "--seed <n> --seconds <n> --trace <0|1> [--span-out <path>]\n",
                 argv[0]);
    return 2;
  }
  // Every pool and CF fleet in the process sizes itself from this cap.
  pixels::SetDefaultParallelism(pixels::DefaultParallelism());
  if (args.workload == "tpch_engine") return e2e::RunTpchEngine(args);
  if (args.workload == "served_mix") return e2e::RunServedMix(args);
  if (args.workload == "control_plane") return e2e::RunControlPlane(args);
  std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
  return 2;
}
