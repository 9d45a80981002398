#include "lib.h"

namespace fixture {

int Used(int x) { return x + 1; }

int Unused(int x) { return x <= 0 ? 0 : Unused(x - 1) + 2; }

}  // namespace fixture
