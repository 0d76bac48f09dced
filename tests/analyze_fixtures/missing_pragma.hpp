// Fixture: a header with an old-style include guard instead of
// '#pragma once'. Expected: one [pragma-once] diagnostic at line 1.
#ifndef LACO_TESTS_ANALYZE_FIXTURES_MISSING_PRAGMA_HPP
#define LACO_TESTS_ANALYZE_FIXTURES_MISSING_PRAGMA_HPP

inline int fixture_value() { return 42; }

#endif
