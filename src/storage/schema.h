#ifndef HYPER_STORAGE_SCHEMA_H_
#define HYPER_STORAGE_SCHEMA_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "storage/value.h"

namespace hyper {

/// Whether a hypothetical update may (directly or indirectly) change an
/// attribute's value (paper §2: mutable vs immutable attributes; keys are
/// always immutable).
enum class Mutability {
  kImmutable = 0,
  kMutable,
};

/// Declaration of one attribute of a relation.
struct AttributeDef {
  std::string name;
  ValueType type = ValueType::kDouble;
  Mutability mutability = Mutability::kMutable;
};

/// Schema of one relation: ordered attributes plus the primary-key subset.
class Schema {
 public:
  Schema() = default;
  Schema(std::string relation_name, std::vector<AttributeDef> attributes,
         std::vector<std::string> key);

  const std::string& relation_name() const { return relation_name_; }
  const std::vector<AttributeDef>& attributes() const { return attributes_; }
  size_t num_attributes() const { return attributes_.size(); }

  /// Index of `name`, or error when absent. Lookup is case-sensitive on
  /// attribute names (the SQL layer normalizes identifiers before calling).
  Result<size_t> IndexOf(const std::string& name) const;
  bool Contains(const std::string& name) const;

  const AttributeDef& attribute(size_t i) const { return attributes_[i]; }

  /// Indices of the primary-key attributes, in declaration order of the key.
  const std::vector<size_t>& key_indices() const { return key_indices_; }
  bool IsKeyAttribute(size_t index) const;

  std::string ToString() const;

 private:
  std::string relation_name_;
  std::vector<AttributeDef> attributes_;
  std::vector<size_t> key_indices_;
  std::unordered_map<std::string, size_t> index_;
};

}  // namespace hyper

#endif  // HYPER_STORAGE_SCHEMA_H_
