#include "service/scenario.h"

namespace hyper::service {

size_t ScenarioBranch::overridden_cells() const {
  size_t total = 0;
  for (const auto& [relation, attrs] : overrides_) {
    for (const auto& [attr, cells] : attrs) total += cells.size();
  }
  return total;
}

std::vector<std::string> ScenarioBranch::TouchedRelations() const {
  std::vector<std::string> out;
  out.reserve(overrides_.size());
  for (const auto& [relation, _] : overrides_) out.push_back(relation);
  return out;
}

ScenarioBranch::RelationOverrides ScenarioBranch::OverridesFor(
    const std::string& relation) const {
  auto it = overrides_.find(relation);
  return it == overrides_.end() ? RelationOverrides{} : it->second;
}

uint64_t ScenarioBranch::FingerprintRestricted(
    const OverrideMap& overrides, const std::string& relation,
    const std::vector<size_t>& attrs) {
  Fnv1a fnv;
  auto rit = overrides.find(relation);
  if (rit == overrides.end()) return fnv.hash();
  for (size_t attr : attrs) {
    auto ait = rit->second.find(attr);
    if (ait == rit->second.end()) continue;
    fnv.Mix(attr);
    for (const auto& [tid, value] : ait->second) {
      fnv.Mix(tid);
      fnv.Mix(value.Hash());
    }
  }
  return fnv.hash();
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
