#include "publish/snapshot.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <unordered_map>
#include <utility>

#include "util/crc32.h"
#include "util/durable.h"

namespace geoloc::publish {

namespace {

constexpr std::uint32_t kMagic = 0x4E534C47u;  // "GLSN" little-endian

// -- little-endian field codecs (byte-order independent) -------------------

void store_u16(std::byte* p, std::uint16_t v) noexcept {
  p[0] = static_cast<std::byte>(v & 0xFF);
  p[1] = static_cast<std::byte>(v >> 8);
}
void store_u32(std::byte* p, std::uint32_t v) noexcept {
  for (int i = 0; i < 4; ++i) {
    p[i] = static_cast<std::byte>((v >> (8 * i)) & 0xFF);
  }
}
void store_u64(std::byte* p, std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) {
    p[i] = static_cast<std::byte>((v >> (8 * i)) & 0xFF);
  }
}
void store_f64(std::byte* p, double v) noexcept {
  store_u64(p, std::bit_cast<std::uint64_t>(v));
}
void store_f32(std::byte* p, float v) noexcept {
  store_u32(p, std::bit_cast<std::uint32_t>(v));
}

std::uint16_t load_u16(const std::byte* p) noexcept {
  return static_cast<std::uint16_t>(static_cast<std::uint8_t>(p[0]) |
                                    (static_cast<std::uint8_t>(p[1]) << 8));
}
std::uint32_t load_u32(const std::byte* p) noexcept {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | static_cast<std::uint8_t>(p[i]);
  return v;
}
std::uint64_t load_u64(const std::byte* p) noexcept {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | static_cast<std::uint8_t>(p[i]);
  return v;
}
double load_f64(const std::byte* p) noexcept {
  return std::bit_cast<double>(load_u64(p));
}
float load_f32(const std::byte* p) noexcept {
  return std::bit_cast<float>(load_u32(p));
}

bool fail(std::string* error, std::string message) {
  if (error) *error = std::move(message);
  return false;
}

/// (network, length) ordering the validator checks; BuildKey::prefix packs
/// the same order for the builder's sort.
bool prefix_less(const net::Prefix& a, const net::Prefix& b) noexcept {
  if (a.network() != b.network()) return a.network() < b.network();
  return a.length() < b.length();
}

/// One builder record, in the compact form the build sorts.
struct BuildKey {
  std::uint64_t prefix;      ///< network << 8 | length: (network, length) order
  std::uint32_t index;       ///< insertion index
  std::uint32_t provenance;  ///< interned provenance string id
};

/// The build order: (network, length), then insertion index.
bool key_less(const BuildKey& a, const BuildKey& b) noexcept {
  return a.prefix != b.prefix ? a.prefix < b.prefix : a.index < b.index;
}

/// Sort [first, last) by (prefix, index) in place: an MSD radix sort on
/// the prefix byte at `shift` and below (American-flag partitions, a byte
/// all keys share costs no permutation), with std::sort for small or
/// single-prefix ranges. In place, because a second key array would add
/// its size to the publisher's peak memory.
void sort_keys(BuildKey* first, BuildKey* last, int shift) {
  constexpr std::ptrdiff_t kSmall = 32;
  const auto digit = [&shift](const BuildKey& k) {
    return static_cast<std::size_t>((k.prefix >> shift) & 0xFF);
  };
  for (; shift >= 0 && last - first > kSmall; shift -= 8) {
    std::array<std::size_t, 257> start{};  // bucket b: [start[b], start[b+1])
    for (const BuildKey* k = first; k != last; ++k) ++start[digit(*k) + 1];
    if (start[digit(*first) + 1] == static_cast<std::size_t>(last - first)) {
      continue;  // one bucket: every key shares this byte
    }
    for (std::size_t b = 0; b < 256; ++b) start[b + 1] += start[b];
    std::array<std::size_t, 256> next{};  // first unplaced slot per bucket
    std::copy(start.begin(), start.end() - 1, next.begin());
    for (std::size_t b = 0; b < 256; ++b) {
      while (next[b] < start[b + 1]) {
        const std::size_t d = digit(first[next[b]]);
        if (d == b) {
          ++next[b];
        } else {
          std::swap(first[next[b]], first[next[d]++]);
        }
      }
    }
    for (std::size_t b = 0; b < 256; ++b) {
      sort_keys(first + start[b], first + start[b + 1], shift - 8);
    }
    return;
  }
  std::sort(first, last, key_less);
}

}  // namespace

std::string_view to_string(Method m) noexcept {
  switch (m) {
    case Method::Cbg: return "cbg";
    case Method::TwoStep: return "two-step";
    case Method::StreetLevel: return "street-level";
    case Method::GeoDb: return "geodb";
    case Method::Fused: return "fused";
  }
  return "?";
}

Record to_record(const SnapshotEntry& e) {
  Record r;
  r.prefix = e.prefix;
  r.location = e.location;
  r.method = e.method;
  r.tier = e.tier;
  r.confidence_radius_km = e.confidence_radius_km;
  r.ttl_s = e.ttl_s;
  r.measured_at_s = e.measured_at_s;
  r.provenance = std::string(e.provenance);
  return r;
}

// -- builder ---------------------------------------------------------------

void SnapshotBuilder::add(Record record) {
  records_.push_back(std::move(record));
}

void SnapshotBuilder::add(std::span<const Record> records) {
  records_.insert(records_.end(), records.begin(), records.end());
}

std::vector<std::byte> SnapshotBuilder::build(const SnapshotMeta& meta) const {
  // One sequential pass over the records in insertion order: pack each
  // prefix into a sort key and intern its provenance, giving every distinct
  // string a dense id (the source first, so a provenance equal to it shares
  // its bytes).
  std::unordered_map<std::string_view, std::uint32_t> ids;
  std::vector<std::string_view> strings;  // by id
  const auto intern = [&](std::string_view s) {
    const auto [it, added] =
        ids.try_emplace(s, static_cast<std::uint32_t>(strings.size()));
    if (added) strings.push_back(s);
    return it->second;
  };
  const std::uint32_t source_id = intern(meta.source);
  std::vector<BuildKey> keys(records_.size());
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    keys[i] = BuildKey{(std::uint64_t{r.prefix.network().value()} << 8) |
                           static_cast<std::uint64_t>(r.prefix.length()),
                       static_cast<std::uint32_t>(i), intern(r.provenance)};
  }

  // Sort by (network, length, insertion index), starting from the top byte
  // of the 40-bit packed prefix, without touching a record. The last key
  // of each run of duplicate prefixes is the last-added record, which wins.
  sort_keys(keys.data(), keys.data() + keys.size(), /*shift=*/32);
  std::size_t kept = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (i + 1 < keys.size() && keys[i + 1].prefix == keys[i].prefix) continue;
    keys[kept++] = keys[i];
  }
  keys.resize(kept);

  // String pool: the source first, then each provenance at its first
  // appearance in entry order; empty strings take no bytes (offset 0).
  constexpr std::uint32_t kUnplaced = 0xFFFFFFFFu;
  std::vector<std::uint32_t> offset_of(strings.size(), kUnplaced);
  std::vector<char> pool;
  const auto place = [&](std::uint32_t id) {
    if (offset_of[id] == kUnplaced) {
      const std::string_view s = strings[id];
      offset_of[id] = s.empty() ? 0 : static_cast<std::uint32_t>(pool.size());
      pool.insert(pool.end(), s.begin(), s.end());
    }
  };
  place(source_id);
  for (const BuildKey& k : keys) place(k.provenance);

  const std::size_t total = kHeaderBytes + kept * kEntryStride + pool.size();
  std::vector<std::byte> out(total);

  // Entry order visits the records at random: prefetch a few entries ahead
  // so the cache misses overlap instead of serialising.
  constexpr std::size_t kPrefetchAhead = 16;
  std::byte* e = out.data() + kHeaderBytes;
  for (std::size_t i = 0; i < kept; ++i) {
    if (i + kPrefetchAhead < kept) {
      const auto* ahead = reinterpret_cast<const char*>(
          &records_[keys[i + kPrefetchAhead].index]);
      __builtin_prefetch(ahead);
      __builtin_prefetch(ahead + sizeof(Record) - 1);
    }
    const Record& r = records_[keys[i].index];
    store_u32(e + 0, r.prefix.network().value());
    e[4] = static_cast<std::byte>(r.prefix.length());
    e[5] = static_cast<std::byte>(r.method);
    e[6] = static_cast<std::byte>(r.tier);
    e[7] = std::byte{0};
    store_f64(e + 8, r.location.lat_deg);
    store_f64(e + 16, r.location.lon_deg);
    store_f64(e + 24, r.measured_at_s);
    store_f32(e + 32, r.confidence_radius_km);
    store_f32(e + 36, r.ttl_s);
    store_u32(e + 40, offset_of[keys[i].provenance]);
    store_u32(e + 44, static_cast<std::uint32_t>(r.provenance.size()));
    e += kEntryStride;
  }
  if (!pool.empty()) {
    std::memcpy(out.data() + kHeaderBytes + kept * kEntryStride, pool.data(),
                pool.size());
  }
  const std::uint32_t source_offset = offset_of[source_id];

  std::byte* h = out.data();
  store_u32(h + 0, kMagic);
  store_u16(h + 4, kFormatVersion);
  store_u16(h + 6, static_cast<std::uint16_t>(kHeaderBytes));
  store_u32(h + 8, meta.dataset_version);
  store_u32(h + 12, static_cast<std::uint32_t>(kEntryStride));
  store_u64(h + 16, kept);
  store_u64(h + 24, pool.size());
  store_f64(h + 32, meta.created_at_s);
  store_u32(h + 40, source_offset);
  store_u32(h + 44, static_cast<std::uint32_t>(meta.source.size()));
  const std::uint32_t payload_crc = util::crc32(
      std::span<const std::byte>(out).subspan(kHeaderBytes));
  store_u32(h + 48, payload_crc);
  store_u32(h + 52, util::crc32(std::span<const std::byte>(h, 52)));
  store_u64(h + 56, 0);
  return out;
}

bool SnapshotBuilder::write_file(const std::string& path,
                                 const SnapshotMeta& meta,
                                 std::string* error) const {
  // Atomic replacement (util/durable.h): a crash mid-publish leaves the
  // previous snapshot version intact, never a torn file under the name a
  // serving process is about to load.
  return util::durable::atomic_write_file(path, build(meta), error);
}

// -- reader ----------------------------------------------------------------

SnapshotEntry Snapshot::entry(std::size_t i) const noexcept {
  const std::byte* e = raw_.data() + kHeaderBytes + i * kEntryStride;
  SnapshotEntry out;
  out.prefix = net::Prefix{net::IPv4Address{load_u32(e + 0)},
                           static_cast<std::uint8_t>(e[4])};
  out.method = static_cast<Method>(e[5]);
  out.tier = static_cast<core::CbgVerdict>(e[6]);
  out.location.lat_deg = load_f64(e + 8);
  out.location.lon_deg = load_f64(e + 16);
  out.measured_at_s = load_f64(e + 24);
  out.confidence_radius_km = load_f32(e + 32);
  out.ttl_s = load_f32(e + 36);
  const std::uint32_t off = load_u32(e + 40);
  const std::uint32_t len = load_u32(e + 44);
  out.provenance = std::string_view(
      reinterpret_cast<const char*>(raw_.data() + pool_offset_ + off), len);
  return out;
}

std::optional<SnapshotEntry> Snapshot::find(net::IPv4Address a) const {
  const auto* slot = index_.lookup(a);
  if (!slot) return std::nullopt;
  return entry(slot->value);
}

std::shared_ptr<const Snapshot> Snapshot::from_bytes(
    std::vector<std::byte> bytes, std::string* error) {
  const auto reject = [&](std::string message) {
    fail(error, "snapshot: " + std::move(message));
    return nullptr;
  };

  if (bytes.size() < kHeaderBytes) {
    return reject("truncated header (" + std::to_string(bytes.size()) +
                  " bytes)");
  }
  const std::byte* h = bytes.data();
  if (load_u32(h + 0) != kMagic) return reject("bad magic");
  if (load_u32(h + 52) !=
      util::crc32(std::span<const std::byte>(h, 52))) {
    return reject("header CRC mismatch");
  }
  const std::uint16_t version = load_u16(h + 4);
  if (version != kFormatVersion) {
    return reject("unsupported format version " + std::to_string(version));
  }
  if (load_u16(h + 6) != kHeaderBytes) return reject("bad header size");
  if (load_u32(h + 12) != kEntryStride) return reject("bad entry stride");

  const std::uint64_t count = load_u64(h + 16);
  const std::uint64_t pool_bytes = load_u64(h + 24);
  // Overflow-safe expected-size check.
  if (count > (bytes.size() - kHeaderBytes) / kEntryStride) {
    return reject("truncated: entry region exceeds file size");
  }
  const std::uint64_t expected =
      kHeaderBytes + count * kEntryStride + pool_bytes;
  if (expected != bytes.size()) {
    return reject("size mismatch: expected " + std::to_string(expected) +
                  " bytes, have " + std::to_string(bytes.size()));
  }
  if (load_u32(h + 48) !=
      util::crc32(std::span<const std::byte>(bytes).subspan(kHeaderBytes))) {
    return reject("payload CRC mismatch");
  }

  const std::uint32_t source_offset = load_u32(h + 40);
  const std::uint32_t source_len = load_u32(h + 44);
  if (static_cast<std::uint64_t>(source_offset) + source_len > pool_bytes) {
    return reject("source string out of pool range");
  }

  auto snap = std::shared_ptr<Snapshot>(new Snapshot());
  snap->raw_ = std::move(bytes);
  snap->entry_count_ = static_cast<std::size_t>(count);
  snap->pool_offset_ =
      kHeaderBytes + static_cast<std::size_t>(count) * kEntryStride;
  snap->dataset_version_ = load_u32(h + 8);
  snap->created_at_s_ = load_f64(h + 32);
  snap->payload_crc_ = load_u32(h + 48);
  h = snap->raw_.data();  // bytes moved; re-anchor views
  snap->source_ = std::string_view(
      reinterpret_cast<const char*>(h + snap->pool_offset_ + source_offset),
      source_len);

  // Semantic validation: every entry well-formed, strictly sorted.
  std::vector<std::pair<net::Prefix, std::uint32_t>> index_entries;
  index_entries.reserve(snap->entry_count_);
  for (std::size_t i = 0; i < snap->entry_count_; ++i) {
    const std::byte* e = h + kHeaderBytes + i * kEntryStride;
    const std::uint32_t network = load_u32(e + 0);
    const int len = static_cast<std::uint8_t>(e[4]);
    if (len > 32) {
      return reject("entry " + std::to_string(i) + ": prefix length " +
                    std::to_string(len));
    }
    if ((network & ~net::Prefix::mask(len)) != 0) {
      return reject("entry " + std::to_string(i) + ": host bits set");
    }
    if (static_cast<std::uint8_t>(e[5]) >
        static_cast<std::uint8_t>(Method::Fused)) {
      return reject("entry " + std::to_string(i) + ": unknown method");
    }
    if (static_cast<std::uint8_t>(e[6]) >
        static_cast<std::uint8_t>(core::CbgVerdict::Unlocatable)) {
      return reject("entry " + std::to_string(i) + ": unknown tier");
    }
    const std::uint32_t off = load_u32(e + 40);
    const std::uint32_t plen = load_u32(e + 44);
    if (static_cast<std::uint64_t>(off) + plen > pool_bytes) {
      return reject("entry " + std::to_string(i) +
                    ": provenance out of pool range");
    }
    const net::Prefix prefix{net::IPv4Address{network}, len};
    if (!index_entries.empty() &&
        !prefix_less(index_entries.back().first, prefix)) {
      return reject("entries not strictly sorted at index " +
                    std::to_string(i));
    }
    index_entries.emplace_back(prefix, static_cast<std::uint32_t>(i));
  }
  snap->index_ = net::FlatLpm<std::uint32_t>::build(std::move(index_entries));
  return snap;
}

std::shared_ptr<const Snapshot> Snapshot::load(const std::string& path,
                                               std::string* error,
                                               bool quarantine_corrupt) {
  util::durable::FileBytes file = util::durable::read_file(path);
  if (file.status != util::durable::ReadStatus::Ok) {
    fail(error, std::string("snapshot: ") + file.what + ": " + path);
    return nullptr;
  }
  auto snap = from_bytes(std::move(file.bytes), error);
  // The file existed and was readable but failed validation: quarantine it
  // so the publisher's next write starts clean and retries don't spin on
  // the same bad bytes (util/durable.h quarantine semantics).
  if (!snap && quarantine_corrupt) util::durable::quarantine(path);
  return snap;
}

}  // namespace geoloc::publish
