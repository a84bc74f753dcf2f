// Deterministic iteration over unordered containers.
//
// std::unordered_map/set iterate in hash-table order, which varies with
// insertion history, load factor, and libstdc++ version — anything derived
// from that order (a JSON dump, a RecordLog save, a bench report) silently
// loses the byte-identical-across---jobs contract. The repo rule (turtlint
// D1) is: an unordered iteration whose body reaches a serialization sink
// must go through an ordering helper. These are the helpers.
//
// Cost model: one O(n) copy of keys/pairs plus an O(n log n) sort — fine
// for dump/report paths, which is the only place ordering matters. Hot
// paths that merely aggregate (and sort the aggregate afterwards) should
// keep iterating the container directly.
#pragma once

#include <algorithm>
#include <type_traits>
#include <utility>
#include <vector>

namespace turtle::util {

/// Key-sorted copy of an associative container's (key, value) pairs.
/// Values are copied; use ordered_keys + lookups when values are heavy.
template <typename Map>
[[nodiscard]] std::vector<std::pair<typename Map::key_type, typename Map::value_type::second_type>>
ordered(const Map& map) {
  std::vector<std::pair<typename Map::key_type, typename Map::value_type::second_type>> pairs;
  pairs.reserve(map.size());
  for (const auto& [key, value] : map) pairs.emplace_back(key, value);
  std::sort(pairs.begin(), pairs.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return pairs;
}

/// Sorted copy of a set-like container's elements (or a map's keys).
template <typename Set>
[[nodiscard]] std::vector<typename Set::key_type> ordered_keys(const Set& container) {
  std::vector<typename Set::key_type> keys;
  keys.reserve(container.size());
  if constexpr (std::is_same_v<typename Set::value_type, typename Set::key_type>) {
    for (const auto& key : container) keys.push_back(key);
  } else {
    for (const auto& [key, value] : container) keys.push_back(key);
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

}  // namespace turtle::util
