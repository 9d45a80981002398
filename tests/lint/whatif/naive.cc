// Fixture (whatif/naive.cc, the possible-world oracle): the oracles keep
// the AST interpreter as their independent reference — must NOT fire.
#include "relational/eval.h"
