// Reference snapshot builder: the byte-identity oracle every
// publish::SnapshotBuilder test compares against. It is the builder's
// original, obviously-correct form: a stable sort of record pointers by
// (network, length), last-add-wins dedup, provenance interned in entry
// order, and a byte-at-a-time CRC-32. Slow (every comparison chases two
// records), so only for tests.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "publish/snapshot.h"

namespace geoloc::testing {

/// CRC-32 (IEEE 802.3, reflected 0xEDB88320), one table lookup per byte.
inline std::uint32_t reference_crc32(std::span<const std::byte> bytes,
                                     std::uint32_t seed = 0) {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (const std::byte b : bytes) {
    c = table[(c ^ static_cast<std::uint8_t>(b)) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

/// The snapshot bytes publish::SnapshotBuilder must produce for `records`
/// (in insertion order) and `meta`.
inline std::vector<std::byte> reference_snapshot(
    std::span<const publish::Record> records,
    const publish::SnapshotMeta& meta) {
  using publish::kEntryStride;
  using publish::kHeaderBytes;
  using publish::Record;
  const auto store = [](std::byte* p, std::uint64_t v, int width) {
    for (int i = 0; i < width; ++i) {
      p[i] = static_cast<std::byte>((v >> (8 * i)) & 0xFF);
    }
  };

  std::vector<const Record*> order;
  for (const Record& r : records) order.push_back(&r);
  std::stable_sort(order.begin(), order.end(),
                   [](const Record* a, const Record* b) {
                     if (a->prefix.network() != b->prefix.network()) {
                       return a->prefix.network() < b->prefix.network();
                     }
                     return a->prefix.length() < b->prefix.length();
                   });
  std::vector<const Record*> kept;
  for (const Record* r : order) {
    if (!kept.empty() && kept.back()->prefix == r->prefix) {
      kept.back() = r;  // the stable sort kept insertion order within ties
    } else {
      kept.push_back(r);
    }
  }

  // String pool: the source first, then per-entry provenance in entry
  // order, deduplicated; empty strings take offset 0 and no bytes.
  std::vector<char> pool;
  std::unordered_map<std::string_view, std::uint32_t> interned;
  const auto intern = [&](std::string_view s) -> std::uint32_t {
    if (s.empty()) return 0;
    if (const auto it = interned.find(s); it != interned.end()) {
      return it->second;
    }
    const auto offset = static_cast<std::uint32_t>(pool.size());
    pool.insert(pool.end(), s.begin(), s.end());
    interned.emplace(s, offset);
    return offset;
  };
  const std::uint32_t source_offset = intern(meta.source);
  std::vector<std::uint32_t> provenance_offsets;
  for (const Record* r : kept) {
    provenance_offsets.push_back(intern(r->provenance));
  }

  std::vector<std::byte> out(kHeaderBytes + kept.size() * kEntryStride +
                             pool.size());
  for (std::size_t i = 0; i < kept.size(); ++i) {
    const Record& r = *kept[i];
    std::byte* e = out.data() + kHeaderBytes + i * kEntryStride;
    store(e + 0, r.prefix.network().value(), 4);
    store(e + 4, static_cast<std::uint64_t>(r.prefix.length()), 1);
    store(e + 5, static_cast<std::uint64_t>(r.method), 1);
    store(e + 6, static_cast<std::uint64_t>(r.tier), 1);
    store(e + 8, std::bit_cast<std::uint64_t>(r.location.lat_deg), 8);
    store(e + 16, std::bit_cast<std::uint64_t>(r.location.lon_deg), 8);
    store(e + 24, std::bit_cast<std::uint64_t>(r.measured_at_s), 8);
    store(e + 32, std::bit_cast<std::uint32_t>(r.confidence_radius_km), 4);
    store(e + 36, std::bit_cast<std::uint32_t>(r.ttl_s), 4);
    store(e + 40, provenance_offsets[i], 4);
    store(e + 44, r.provenance.size(), 4);
  }
  if (!pool.empty()) {
    std::memcpy(out.data() + kHeaderBytes + kept.size() * kEntryStride,
                pool.data(), pool.size());
  }

  std::byte* h = out.data();
  store(h + 0, 0x4E534C47u, 4);  // "GLSN"
  store(h + 4, publish::kFormatVersion, 2);
  store(h + 6, kHeaderBytes, 2);
  store(h + 8, meta.dataset_version, 4);
  store(h + 12, kEntryStride, 4);
  store(h + 16, kept.size(), 8);
  store(h + 24, pool.size(), 8);
  store(h + 32, std::bit_cast<std::uint64_t>(meta.created_at_s), 8);
  store(h + 40, source_offset, 4);
  store(h + 44, meta.source.size(), 4);
  store(h + 48,
        reference_crc32(std::span<const std::byte>(out).subspan(kHeaderBytes)),
        4);
  store(h + 52, reference_crc32(std::span<const std::byte>(h, 52)), 4);
  return out;
}

}  // namespace geoloc::testing
