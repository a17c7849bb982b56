//===- main.cpp - The DPRLE benchmark program -----------------------------===//
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--corrupt-reference]
//   perfbench --list-metrics
//
// Runs one workload and prints, as the last line of standard output, one
// JSON object: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones. Diagnostics go to standard error. See README.md.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace pb;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload fig12_faithful|session_edit "
               "--seed N --seconds S --trace 0|1 "
               "[--corrupt-reference]\n"
               "       perfbench --list-metrics\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    const char *V = nullptr;
    if (A == "--list-metrics") {
      for (const auto &[Name, Unit] : endToEndMetrics())
        std::printf("end_to_end %s %s\n", Name.c_str(), Unit.c_str());
      for (const auto &[Name, Unit] : perLayerMetrics())
        std::printf("per_layer %s %s\n", Name.c_str(), Unit.c_str());
      return 0;
    } else if (A == "--corrupt-reference") {
      O.CorruptReference = true;
    } else if (A == "--workload" && (V = Next())) {
      O.Workload = V;
    } else if (A == "--seed" && (V = Next())) {
      O.Seed = std::strtoull(V, nullptr, 10);
    } else if (A == "--seconds" && (V = Next())) {
      O.Seconds = std::strtod(V, nullptr);
    } else if (A == "--trace" && (V = Next())) {
      O.Trace = std::strcmp(V, "0") != 0;
    } else {
      return usage();
    }
  }
  if (O.Seconds <= 0)
    return usage();

  // A peer that goes away must fail a write, not kill the benchmark.
  std::signal(SIGPIPE, SIG_IGN);
  RunResult R;
  if (O.Workload == "fig12_faithful")
    R = runFig12(O);
  else if (O.Workload == "session_edit")
    R = runSessionEdit(O);
  else
    return usage();
  std::fflush(stderr);
  std::printf("%s\n", R.json().c_str());
  return 0;
}
