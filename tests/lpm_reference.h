// Linear-scan longest-prefix-match reference: the oracle every net::FlatLpm
// property test compares against. O(entries) per lookup, so only for tests.
#pragma once

#include <optional>
#include <span>
#include <utility>

#include "net/ipv4.h"

namespace geoloc::testing {

/// The longest prefix in `entries` covering `a`, with its value. Among
/// duplicate prefixes the last one listed wins (insert-or-overwrite order).
template <typename Value>
std::optional<std::pair<net::Prefix, Value>> reference_lpm(
    std::span<const std::pair<net::Prefix, Value>> entries,
    net::IPv4Address a) {
  std::optional<std::pair<net::Prefix, Value>> best;
  for (const auto& [prefix, value] : entries) {
    if (!prefix.contains(a)) continue;
    // Two distinct prefixes of one length cannot both cover `a`, so `>=`
    // only ever replaces a duplicate of the same prefix.
    if (!best || prefix.length() >= best->first.length()) {
      best = {prefix, value};
    }
  }
  return best;
}

}  // namespace geoloc::testing
