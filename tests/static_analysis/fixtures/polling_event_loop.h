// Negative fixture (header half): declares an event-loop function whose
// definition in polling_event_loop.cc polls a future. tools/lint/
// run_lint.py MUST flag the wait_for ([blocking-call]). See
// polling_event_loop.cc.
//
// Not part of the normal build: linted only by
// tests/static_analysis/check_fixtures.py.

#ifndef XSACT_TESTS_STATIC_ANALYSIS_FIXTURES_POLLING_EVENT_LOOP_H_
#define XSACT_TESTS_STATIC_ANALYSIS_FIXTURES_POLLING_EVENT_LOOP_H_

#include <future>

#include "common/thread_annotations.h"

namespace xsact_fixture {

class PollingLoop {
 public:
  XSACT_EVENT_LOOP_THREAD void Sweep();

 private:
  std::future<int> pending_;
};

}  // namespace xsact_fixture

#endif  // XSACT_TESTS_STATIC_ANALYSIS_FIXTURES_POLLING_EVENT_LOOP_H_
