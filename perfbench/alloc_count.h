// Allocation counting for the traced run. alloc_count.cc replaces the
// global operator new of the benchmark binary, so every heap allocation
// made by any XSACT layer linked into it is counted. Counts repeat
// exactly from run to run, which keeps them usable when timings drift.

#ifndef XSACT_PERFBENCH_ALLOC_COUNT_H_
#define XSACT_PERFBENCH_ALLOC_COUNT_H_

#include <cstdint>

namespace perfbench {

/// Allocations made so far by the calling thread.
uint64_t ThreadAllocs();

/// Turns the process-wide counter on or off. It is off by default so the
/// measured (untraced) runs pay no shared-counter traffic.
void SetProcessAllocCounting(bool on);

/// Allocations made by all threads while process-wide counting was on.
uint64_t ProcessAllocs();

}  // namespace perfbench

#endif  // XSACT_PERFBENCH_ALLOC_COUNT_H_
