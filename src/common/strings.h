#ifndef HYPER_COMMON_STRINGS_H_
#define HYPER_COMMON_STRINGS_H_

#include <string>
#include <string_view>
#include <vector>

namespace hyper {

/// Splits `text` on `sep`, keeping empty fields.
std::vector<std::string> Split(std::string_view text, char sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view text);

/// ASCII lower-casing (the SQL dialect is case-insensitive on keywords).
std::string ToLower(std::string_view text);

/// Case-insensitive ASCII equality.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace hyper

#endif  // HYPER_COMMON_STRINGS_H_
