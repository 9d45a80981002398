// Fixture for the `unreferenced` rule (tests/lint_invariants_test.py): a
// library object with one function a caller object uses and one it does not.
#ifndef FIXTURE_UNREFERENCED_LIB_H_
#define FIXTURE_UNREFERENCED_LIB_H_

namespace fixture {

/// caller.cc calls it.
int Used(int x);

/// Nothing outside tests calls it; it calls itself, which is no use.
int Unused(int x);

}  // namespace fixture

#endif  // FIXTURE_UNREFERENCED_LIB_H_
