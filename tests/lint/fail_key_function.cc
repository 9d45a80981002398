// Fixture: a cache-key function that folds governance state into the key —
// must FIRE cache-key-governance.
#include <string>

struct Options {
  int estimator = 0;
  double budget = 0.0;
};

std::string QueryStageKey(const std::string& scope, const Options& options) {
  std::string key = "query|" + scope;
  key += std::to_string(options.estimator);
  key += std::to_string(options.budget);  // per-request: never hits again
  return key;
}
