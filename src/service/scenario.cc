#include "service/scenario.h"

namespace hyper::service {

size_t ScenarioBranch::overridden_cells() const {
  size_t total = 0;
  for (const auto& [relation, attrs] : overrides_) {
    for (const auto& [attr, cells] : attrs) total += cells.size();
  }
  return total;
}

void ScenarioBranch::Override(
    const std::string& relation, size_t attr,
    const std::vector<std::pair<size_t, Value>>& cells) {
  if (cells.empty()) return;
  auto& slot = overrides_[relation][attr];
  fnv_.MixString(relation);
  fnv_.Mix(attr);
  for (const auto& [tid, value] : cells) {
    slot[tid] = value;
    fnv_.Mix(tid);
    fnv_.Mix(value.Hash());
  }
  ++version_;
}

uint64_t ScenarioBranch::PreviewFingerprint(
    uint64_t fnv_state, const std::string& relation, size_t attr,
    const std::vector<std::pair<size_t, Value>>& cells) {
  if (cells.empty()) return fnv_state;
  // Mirrors Override()'s mixing exactly; keep the two in lockstep.
  Fnv1a fnv(fnv_state);
  fnv.MixString(relation);
  fnv.Mix(attr);
  for (const auto& [tid, value] : cells) {
    fnv.Mix(tid);
    fnv.Mix(value.Hash());
  }
  return fnv.hash();
}

}  // namespace hyper::service
