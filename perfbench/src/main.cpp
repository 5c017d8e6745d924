//===- perfbench/src/main.cpp - cfvbench entry point ----------------------===//
//
//   cfvbench --workload <cold-1t|serve-4c> --seed <n>
//            --seconds <s> --trace <0|1> --work-dir <dir>
//            [--trace-out <file>] [--serve-bin <path>] [--corrupt-op <k>]
//
// Prints one JSON result line on stdout (the last line); diagnostics go
// to stderr.  perfbench/run.py builds this program and calls it.
//
//===----------------------------------------------------------------------===//

#include "Batch.h"
#include "Common.h"
#include "Serve.h"

#include <cstdio>
#include <cstdlib>
#include <string>

using namespace perfbench;

namespace {

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "cfvbench: %s\n"
               "usage: cfvbench --workload <cold-1t|serve-4c> --seed <n> "
               "--seconds <s> --trace <0|1>\n"
               "                --work-dir <dir> [--trace-out <file>] "
               "[--serve-bin <path>] [--corrupt-op <k>]\n",
               Why);
  std::exit(2);
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  for (int I = 1; I < Argc; ++I) {
    const std::string Flag = Argv[I];
    if (I + 1 >= Argc)
      usage(("missing value for " + Flag).c_str());
    const char *V = Argv[++I];
    char *End = nullptr;
    if (Flag == "--workload")
      A.Workload = V;
    else if (Flag == "--seed")
      A.Seed = std::strtoull(V, &End, 10);
    else if (Flag == "--seconds")
      A.Seconds = std::strtod(V, &End);
    else if (Flag == "--trace")
      A.Trace = std::string(V) == "1";
    else if (Flag == "--work-dir")
      A.WorkDir = V;
    else if (Flag == "--trace-out")
      A.TraceOut = V;
    else if (Flag == "--serve-bin")
      A.ServeBin = V;
    else if (Flag == "--corrupt-op")
      A.CorruptOp = std::strtoll(V, &End, 10);
    else
      usage(("unknown flag " + Flag).c_str());
    if (End && *End)
      usage(("bad number for " + Flag).c_str());
  }
  if (!(A.Seconds > 0))
    usage("--seconds must be positive");

  Report Out;
  int Rc = 2;
  if (A.Workload == "cold-1t")
    Rc = runBatch(A, Out);
  else if (A.Workload == "serve-4c")
    Rc = A.ServeBin.empty() ? 2 : runServe(A, Out);
  else
    usage("unknown workload");
  if (Rc != 0)
    return Rc;
  std::printf("%s\n", Out.json().c_str());
  return 0;
}
