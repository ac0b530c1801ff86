// Negative fixture: an XSACT_EVENT_LOOP_THREAD function that sweeps a
// future with a zero-timeout wait_for(). tools/lint/run_lint.py MUST
// flag it ([blocking-call]): a loop that polls futures needs a periodic
// tick to notice finished work, so every request pays for the tick. The
// loop should be woken by a completion instead. If run_lint.py passes
// this file, the lint is dead — check_fixtures.py fails the CI job.
//
// Not part of the normal build: linted only by
// tests/static_analysis/check_fixtures.py.

#include "polling_event_loop.h"

#include <chrono>

namespace xsact_fixture {

// BUG (deliberate): polling an engine future from the event loop.
void PollingLoop::Sweep() {
  if (pending_.valid() &&
      pending_.wait_for(std::chrono::seconds(0)) ==
          std::future_status::ready) {
    (void)pending_.get();
  }
}

}  // namespace xsact_fixture
