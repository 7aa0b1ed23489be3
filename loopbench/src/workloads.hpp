// The benchmark's workloads (README.md, "Workloads"). Each fills the
// report with the end-to-end metrics, or with the per-layer metrics
// when args.trace is set, and counts every checked operation.
#pragma once

#include "common.hpp"

namespace lb {

void run_mandel_hetero(const Args& args, Report& report);
void run_chunks(const Args& args, Report& report, bool masterless);
void run_svc_open(const Args& args, Report& report);

}  // namespace lb
