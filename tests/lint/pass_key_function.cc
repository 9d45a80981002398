// Fixture: a cache-key function that reads only request-independent fields —
// must NOT fire, although governance names appear in comments, literals,
// calls of a *Key function and functions that build no key.
#include <string>

struct Options {
  int estimator = 0;
  double budget = 0.0;
};

std::string LearnStageKey(const std::string& scope, const Options& options) {
  // The budget never enters a key.
  std::string key = "learn|budget-free|" + scope;
  key += std::to_string(options.estimator);
  return key;
}

double RemainingBudget(const Options& options) { return options.budget; }

void Record(JsonWriter& w, const Options& options) {
  w.Key("budget").Double(options.budget);
}
