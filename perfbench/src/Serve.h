//===- perfbench/src/Serve.h - The serving workload -------------*- C++ -*-===//

#ifndef PERFBENCH_SERVE_H
#define PERFBENCH_SERVE_H

#include "Common.h"

namespace perfbench {

/// Runs serve-4c into \p Out; returns the process exit code.
int runServe(const Args &A, Report &Out);

} // namespace perfbench

#endif // PERFBENCH_SERVE_H
