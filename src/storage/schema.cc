#include "storage/schema.h"

#include "common/logging.h"
#include "common/strings.h"

namespace hyper {

Schema::Schema(std::string relation_name,
               std::vector<AttributeDef> attributes,
               std::vector<std::string> key)
    : relation_name_(std::move(relation_name)),
      attributes_(std::move(attributes)) {
  for (size_t i = 0; i < attributes_.size(); ++i) {
    const bool inserted = index_.emplace(attributes_[i].name, i).second;
    HYPER_CHECK(inserted && "duplicate attribute name in schema");
  }
  for (const std::string& k : key) {
    auto it = index_.find(k);
    HYPER_CHECK(it != index_.end() && "key attribute not in schema");
    key_indices_.push_back(it->second);
    // Keys are always immutable (paper §2).
    attributes_[it->second].mutability = Mutability::kImmutable;
  }
}

Result<size_t> Schema::IndexOf(const std::string& name) const {
  auto it = index_.find(name);
  if (it == index_.end()) {
    return Status::NotFound("attribute '" + name + "' not in relation '" +
                            relation_name_ + "'");
  }
  return it->second;
}

bool Schema::Contains(const std::string& name) const {
  return index_.count(name) > 0;
}

bool Schema::IsKeyAttribute(size_t index) const {
  for (size_t k : key_indices_) {
    if (k == index) return true;
  }
  return false;
}

std::string Schema::ToString() const {
  std::vector<std::string> cols;
  cols.reserve(attributes_.size());
  for (size_t i = 0; i < attributes_.size(); ++i) {
    std::string col = attributes_[i].name;
    col += " ";
    col += ValueTypeName(attributes_[i].type);
    if (IsKeyAttribute(i)) col += " KEY";
    if (attributes_[i].mutability == Mutability::kImmutable &&
        !IsKeyAttribute(i)) {
      col += " IMMUTABLE";
    }
    cols.push_back(col);
  }
  return relation_name_ + "(" + Join(cols, ", ") + ")";
}

}  // namespace hyper
