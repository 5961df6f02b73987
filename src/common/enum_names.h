// One {name, value} table per enum that is both printed and parsed, read
// in both directions, so a name is listed once.
#pragma once

#include <cstddef>
#include <optional>
#include <string_view>

namespace rvss {

template <typename E>
struct EnumName {
  const char* name;
  E value;
};

/// The name of `value`; the first entry's name for a value the table does
/// not list.
template <typename E, std::size_t N>
constexpr const char* NameOf(const EnumName<E> (&table)[N], E value) {
  for (const EnumName<E>& entry : table) {
    if (entry.value == value) return entry.name;
  }
  return table[0].name;
}

/// The value called `name`, if the table lists it.
template <typename E, std::size_t N>
constexpr std::optional<E> ValueOf(const EnumName<E> (&table)[N],
                                   std::string_view name) {
  for (const EnumName<E>& entry : table) {
    if (entry.name == name) return entry.value;
  }
  return std::nullopt;
}

}  // namespace rvss
