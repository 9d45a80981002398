// Fixture: engine code on the compiled evaluator — must NOT fire. A mention
// of "relational/eval.h" in a comment or a string is not an include.
#include "relational/compiled.h"

const char* kReference = "relational/eval.h";
