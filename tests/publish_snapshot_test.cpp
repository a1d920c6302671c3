// Snapshot format: write -> read roundtrip (property-style, multiple
// seeds), determinism, byte identity with the reference builder
// (snapshot_reference.h), CRC-32 known answers, and the corruption
// battery — bad magic, bad CRCs, truncation at every region, semantic
// invalidity. A rejected file must produce a clean error, never UB (the
// suite runs under the sanitize and tsan presets).
#include "publish/snapshot.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "snapshot_reference.h"
#include "util/crc32.h"
#include "util/rng.h"

namespace geoloc::publish {
namespace {

using util::Pcg32;

Record random_record(Pcg32& gen) {
  Record r;
  const int len = static_cast<int>(8 + gen.bounded(25));  // 8..32
  r.prefix = net::Prefix{net::IPv4Address{gen() | (gen.bounded(223) << 24)},
                         len};
  r.location.lat_deg = gen.uniform(-90.0, 90.0);
  r.location.lon_deg = gen.uniform(-180.0, 180.0);
  r.method = static_cast<Method>(gen.bounded(4));
  r.tier = static_cast<core::CbgVerdict>(gen.bounded(3));
  r.confidence_radius_km = static_cast<float>(gen.uniform(0.0, 5000.0));
  r.ttl_s = static_cast<float>(gen.uniform(0.0, 1e6));
  r.measured_at_s = gen.uniform(0.0, 1e8);
  const char* provenances[] = {"", "cbg/all-vps:obs=10723",
                               "geodb/IPinfo:geofeed", "street-level:tier=3",
                               "two-step:first=100,region-vps=17"};
  r.provenance = provenances[gen.bounded(5)];
  return r;
}

std::vector<Record> random_records(std::uint64_t seed, std::size_t n) {
  Pcg32 gen(seed);
  std::vector<Record> records;
  records.reserve(n);
  for (std::size_t i = 0; i < n; ++i) records.push_back(random_record(gen));
  return records;
}

std::vector<std::byte> build_bytes(const std::vector<Record>& records,
                                   const SnapshotMeta& meta) {
  SnapshotBuilder b;
  b.add(records);
  return b.build(meta);
}

SnapshotMeta test_meta() {
  return SnapshotMeta{.dataset_version = 7,
                      .created_at_s = 123456.5,
                      .source = "unit-test campaign"};
}

/// Re-stamp both CRCs after deliberately corrupting payload bytes, so the
/// semantic validators (not the checksum) are what rejects the file.
void restamp_crcs(std::vector<std::byte>& bytes) {
  const std::uint32_t payload =
      util::crc32(std::span<const std::byte>(bytes).subspan(kHeaderBytes));
  for (int i = 0; i < 4; ++i) {
    bytes[48 + i] = static_cast<std::byte>((payload >> (8 * i)) & 0xFF);
  }
  const std::uint32_t header =
      util::crc32(std::span<const std::byte>(bytes.data(), 52));
  for (int i = 0; i < 4; ++i) {
    bytes[52 + i] = static_cast<std::byte>((header >> (8 * i)) & 0xFF);
  }
}

TEST(SnapshotFormat, RoundtripIsBitIdenticalAcrossSeeds) {
  for (const std::uint64_t seed : {1ULL, 42ULL, 20230415ULL, 999ULL, 7ULL}) {
    const auto records = random_records(seed, 200);
    const SnapshotMeta meta = test_meta();
    std::string error;
    const auto snap = Snapshot::from_bytes(build_bytes(records, meta), &error);
    ASSERT_NE(snap, nullptr) << "seed " << seed << ": " << error;

    EXPECT_EQ(snap->dataset_version(), meta.dataset_version);
    EXPECT_EQ(snap->created_at_s(), meta.created_at_s);
    EXPECT_EQ(snap->source(), meta.source);

    // The builder dedups by prefix (last wins); reconstruct the expectation.
    std::vector<const Record*> expected;
    for (const Record& r : records) {
      bool replaced = false;
      for (auto& e : expected) {
        if (e->prefix == r.prefix) {
          e = &r;
          replaced = true;
          break;
        }
      }
      if (!replaced) expected.push_back(&r);
    }
    ASSERT_EQ(snap->size(), expected.size()) << "seed " << seed;

    for (std::size_t i = 0; i < snap->size(); ++i) {
      const SnapshotEntry e = snap->entry(i);
      const Record* want = nullptr;
      for (const Record* r : expected) {
        if (r->prefix == e.prefix) {
          want = r;
          break;
        }
      }
      ASSERT_NE(want, nullptr);
      EXPECT_EQ(e.location.lat_deg, want->location.lat_deg);  // bit-exact
      EXPECT_EQ(e.location.lon_deg, want->location.lon_deg);
      EXPECT_EQ(e.method, want->method);
      EXPECT_EQ(e.tier, want->tier);
      EXPECT_EQ(e.confidence_radius_km, want->confidence_radius_km);
      EXPECT_EQ(e.ttl_s, want->ttl_s);
      EXPECT_EQ(e.measured_at_s, want->measured_at_s);
      EXPECT_EQ(e.provenance, want->provenance);
      if (i > 0) {
        const SnapshotEntry prev = snap->entry(i - 1);
        EXPECT_TRUE(prev.prefix.network() < e.prefix.network() ||
                    (prev.prefix.network() == e.prefix.network() &&
                     prev.prefix.length() < e.prefix.length()))
            << "entries must be strictly sorted";
      }
    }
  }
}

TEST(SnapshotFormat, BuildIsDeterministic) {
  const auto records = random_records(5, 64);
  const auto a = build_bytes(records, test_meta());
  const auto b = build_bytes(records, test_meta());
  EXPECT_EQ(a, b);
}

TEST(SnapshotFormat, DuplicatePrefixLastAddWins) {
  Record first;
  first.prefix = *net::Prefix::parse("10.0.0.0/24");
  first.location = {1.0, 1.0};
  first.provenance = "first";
  Record second = first;
  second.location = {2.0, 2.0};
  second.provenance = "second";
  SnapshotBuilder b;
  b.add(first);
  b.add(second);
  const auto snap = Snapshot::from_bytes(b.build(test_meta()));
  ASSERT_NE(snap, nullptr);
  ASSERT_EQ(snap->size(), 1u);
  EXPECT_EQ(snap->entry(0).location.lat_deg, 2.0);
  EXPECT_EQ(snap->entry(0).provenance, "second");
}

TEST(SnapshotFormat, FileRoundtrip) {
  const auto records = random_records(11, 50);
  SnapshotBuilder b;
  b.add(records);
  const std::string path =
      ::testing::TempDir() + "/geoloc-snapshot-roundtrip.bin";
  std::string error;
  ASSERT_TRUE(b.write_file(path, test_meta(), &error)) << error;
  const auto snap = Snapshot::load(path, &error);
  ASSERT_NE(snap, nullptr) << error;
  EXPECT_EQ(snap->size(), 50u);
  const auto bytes = b.build(test_meta());
  EXPECT_EQ(snap->payload_crc(),
            util::crc32(std::span<const std::byte>(bytes).subspan(
                kHeaderBytes)));
  std::remove(path.c_str());
}

TEST(SnapshotFormat, FindAnswersLongestPrefix) {
  SnapshotBuilder b;
  Record wide;
  wide.prefix = *net::Prefix::parse("10.0.0.0/8");
  wide.location = {10.0, 0.0};
  Record narrow;
  narrow.prefix = *net::Prefix::parse("10.1.2.0/24");
  narrow.location = {20.0, 0.0};
  b.add(wide);
  b.add(narrow);
  const auto snap = Snapshot::from_bytes(b.build(test_meta()));
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->find(*net::IPv4Address::parse("10.1.2.3"))->location.lat_deg,
            20.0);
  EXPECT_EQ(snap->find(*net::IPv4Address::parse("10.9.9.9"))->location.lat_deg,
            10.0);
  EXPECT_FALSE(snap->find(*net::IPv4Address::parse("11.0.0.1")).has_value());
}

TEST(SnapshotFormat, EmptySnapshotIsValid) {
  SnapshotBuilder b;
  std::string error;
  const auto snap = Snapshot::from_bytes(b.build(test_meta()), &error);
  ASSERT_NE(snap, nullptr) << error;
  EXPECT_TRUE(snap->empty());
  EXPECT_FALSE(snap->find(net::IPv4Address{1}).has_value());
}

// -- byte identity with the reference builder -------------------------------

/// Records that exercise every ordering rule of the builder: duplicate
/// prefixes (the last add wins), prefixes nested in earlier ones, empty,
/// shared and unique provenance (one string equal to the snapshot source),
/// all in shuffled insertion order. With `in_one_slash16` every prefix
/// lies inside 10.1.0.0/16, so the sort keys share their top bytes.
std::vector<Record> oracle_records(std::uint64_t seed, std::size_t n,
                                   bool in_one_slash16 = false) {
  Pcg32 gen(seed);
  const std::string shared[] = {"", "unit-test campaign",
                                "cbg/all-vps:obs=10723", "geodb/IPinfo",
                                "x"};
  std::vector<Record> out;
  out.reserve(n);
  while (out.size() < n) {
    Record r = random_record(gen);
    const std::uint32_t roll = gen.bounded(10);
    if (!out.empty() && roll < 2) {
      r.prefix = out[gen.bounded(out.size())].prefix;  // duplicate
    } else if (!out.empty() && roll < 4) {
      const net::Prefix& outer = out[gen.bounded(out.size())].prefix;
      r.prefix = net::Prefix{outer.network(),  // nested, either way
                             static_cast<int>(gen.bounded(33))};
    }
    r.provenance = roll == 9 ? "unique-" + std::to_string(out.size())
                             : shared[gen.bounded(5)];
    if (in_one_slash16) {
      r.prefix = net::Prefix{
          net::IPv4Address{0x0A010000u | (r.prefix.network().value() & 0xFFFF)},
          std::max(16, r.prefix.length())};
    }
    out.push_back(std::move(r));
  }
  for (std::size_t i = out.size(); i > 1; --i) {
    std::swap(out[i - 1], out[gen.bounded(static_cast<std::uint32_t>(i))]);
  }
  return out;
}

TEST(SnapshotBuilderOracle, ByteIdenticalToReferenceOnRandomRecordSets) {
  const SnapshotMeta metas[] = {
      test_meta(), SnapshotMeta{.dataset_version = 2, .source = ""},
      SnapshotMeta{.dataset_version = 3, .source = "x"}};
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 42ULL, 20230415ULL}) {
    for (const std::size_t n : {0u, 1u, 2u, 17u, 500u, 3000u}) {
      for (const bool in_one_slash16 : {false, true}) {
        const auto records = oracle_records(seed, n, in_one_slash16);
        for (const SnapshotMeta& meta : metas) {
          EXPECT_EQ(build_bytes(records, meta),
                    testing::reference_snapshot(records, meta))
              << "seed " << seed << ", " << n << " records, source '"
              << meta.source << "', in one /16: " << in_one_slash16;
        }
      }
    }
  }
}

TEST(SnapshotBuilderOracle, ByteIdenticalToReferenceOn200kRecords) {
  const auto records = oracle_records(7, 200'000);
  EXPECT_EQ(build_bytes(records, test_meta()),
            testing::reference_snapshot(records, test_meta()));
}

// -- CRC-32 -----------------------------------------------------------------

std::span<const std::byte> as_bytes(std::string_view s) {
  return std::as_bytes(std::span<const char>(s.data(), s.size()));
}

std::vector<std::byte> random_bytes(std::uint64_t seed, std::size_t n) {
  Pcg32 gen(seed);
  std::vector<std::byte> out(n);
  for (std::byte& b : out) b = static_cast<std::byte>(gen.bounded(256));
  return out;
}

TEST(SnapshotCrc32, KnownAnswers) {
  EXPECT_EQ(util::crc32(as_bytes("123456789")), 0xCBF43926u);
  EXPECT_EQ(util::crc32({}), 0u);
  EXPECT_EQ(testing::reference_crc32(as_bytes("123456789")), 0xCBF43926u);
}

TEST(SnapshotCrc32, ContinuingThroughSeedAtEverySplitEqualsOneShot) {
  const auto buf = random_bytes(1, 1024);
  const std::span<const std::byte> all(buf);
  const std::uint32_t one_shot = util::crc32(all);
  for (std::size_t split = 0; split <= all.size(); ++split) {
    EXPECT_EQ(util::crc32(all.subspan(split), util::crc32(all.first(split))),
              one_shot)
        << "split at " << split;
  }
}

TEST(SnapshotCrc32, MatchesByteAtATimeReferenceAtEveryLengthAndOffset) {
  const auto buf = random_bytes(2, 8 + 64);
  const std::span<const std::byte> all(buf);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 64; ++len) {
      const auto part = all.subspan(offset, len);
      EXPECT_EQ(util::crc32(part), testing::reference_crc32(part))
          << "offset " << offset << ", length " << len;
      EXPECT_EQ(util::crc32(part, 0xDEADBEEFu),
                testing::reference_crc32(part, 0xDEADBEEFu))
          << "seeded, offset " << offset << ", length " << len;
    }
  }
}

// -- corruption battery ----------------------------------------------------

class SnapshotCorruption : public ::testing::Test {
 protected:
  void SetUp() override {
    bytes_ = build_bytes(random_records(3, 40), test_meta());
  }

  void expect_rejected(std::vector<std::byte> bytes,
                       const char* what) {
    std::string error;
    const auto snap = Snapshot::from_bytes(std::move(bytes), &error);
    EXPECT_EQ(snap, nullptr) << what;
    EXPECT_FALSE(error.empty()) << what;
  }

  std::vector<std::byte> bytes_;
};

TEST_F(SnapshotCorruption, BadMagic) {
  auto bytes = bytes_;
  bytes[0] = static_cast<std::byte>('X');
  expect_rejected(std::move(bytes), "magic");
}

TEST_F(SnapshotCorruption, UnsupportedFormatVersion) {
  auto bytes = bytes_;
  bytes[4] = std::byte{0x99};
  restamp_crcs(bytes);
  expect_rejected(std::move(bytes), "format version");
}

TEST_F(SnapshotCorruption, HeaderBitFlip) {
  auto bytes = bytes_;
  bytes[17] = static_cast<std::byte>(static_cast<std::uint8_t>(bytes[17]) ^ 1);
  expect_rejected(std::move(bytes), "header CRC");
}

TEST_F(SnapshotCorruption, PayloadBitFlip) {
  auto bytes = bytes_;
  bytes[kHeaderBytes + 9] =
      static_cast<std::byte>(static_cast<std::uint8_t>(bytes[kHeaderBytes + 9]) ^
                             0x40);
  expect_rejected(std::move(bytes), "payload CRC");
}

TEST_F(SnapshotCorruption, TruncationAtEveryRegion) {
  // Header cut short, entries cut mid-record, pool missing its tail, and
  // the classic one-byte-short copy.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{10}, kHeaderBytes - 1, kHeaderBytes + 17,
        bytes_.size() / 2, bytes_.size() - 1}) {
    auto bytes = bytes_;
    bytes.resize(keep);
    expect_rejected(std::move(bytes),
                    ("truncated to " + std::to_string(keep)).c_str());
  }
}

TEST_F(SnapshotCorruption, TrailingGarbage) {
  auto bytes = bytes_;
  bytes.push_back(std::byte{0});
  expect_rejected(std::move(bytes), "trailing byte");
}

TEST_F(SnapshotCorruption, HostBitsSetInPrefix) {
  auto bytes = bytes_;
  // Entry 0's network field: force host bits below a /24 length.
  bytes[kHeaderBytes + 0] = std::byte{0xFF};
  bytes[kHeaderBytes + 4] = std::byte{24};
  restamp_crcs(bytes);
  expect_rejected(std::move(bytes), "host bits");
}

TEST_F(SnapshotCorruption, PrefixLengthOutOfRange) {
  auto bytes = bytes_;
  bytes[kHeaderBytes + 4] = std::byte{33};
  restamp_crcs(bytes);
  expect_rejected(std::move(bytes), "prefix length");
}

TEST_F(SnapshotCorruption, UnknownMethodAndTier) {
  auto bytes = bytes_;
  bytes[kHeaderBytes + 5] = std::byte{200};
  restamp_crcs(bytes);
  expect_rejected(std::move(bytes), "method");

  bytes = bytes_;
  bytes[kHeaderBytes + 6] = std::byte{200};
  restamp_crcs(bytes);
  expect_rejected(std::move(bytes), "tier");
}

TEST_F(SnapshotCorruption, ProvenanceOutOfPoolRange) {
  auto bytes = bytes_;
  for (int i = 0; i < 4; ++i) bytes[kHeaderBytes + 44 + i] = std::byte{0xFF};
  restamp_crcs(bytes);
  expect_rejected(std::move(bytes), "provenance range");
}

TEST_F(SnapshotCorruption, UnsortedEntriesRejected) {
  ASSERT_GE(bytes_.size(), kHeaderBytes + 2 * kEntryStride);
  auto bytes = bytes_;
  // Swap the first two 48-byte entry blocks, breaking strict ordering.
  for (std::size_t i = 0; i < kEntryStride; ++i) {
    std::swap(bytes[kHeaderBytes + i], bytes[kHeaderBytes + kEntryStride + i]);
  }
  restamp_crcs(bytes);
  expect_rejected(std::move(bytes), "unsorted");
}

TEST_F(SnapshotCorruption, EntryCountOverflowRejected) {
  auto bytes = bytes_;
  for (int i = 0; i < 8; ++i) bytes[16 + i] = std::byte{0xFF};
  restamp_crcs(bytes);
  expect_rejected(std::move(bytes), "entry count overflow");
}

TEST_F(SnapshotCorruption, MissingFile) {
  std::string error;
  EXPECT_EQ(Snapshot::load(::testing::TempDir() + "/does-not-exist.bin",
                           &error),
            nullptr);
  EXPECT_FALSE(error.empty());
}

// -- staleness boundary semantics -------------------------------------------

TEST(SnapshotStaleness, BoundaryIsInclusive) {
  SnapshotEntry e;
  e.measured_at_s = 1'000.0;
  e.ttl_s = 500.0f;
  EXPECT_DOUBLE_EQ(e.stale_horizon_s(), 1'500.0);
  EXPECT_FALSE(e.stale_at(1'499.999));
  // Exactly at the horizon: STALE. The longitudinal loop measures at epoch
  // boundaries with ttl == k * epoch_s; a strict `>` here (the old
  // behaviour) made every such entry forever "fresh" at the instant it was
  // due and TTL-driven re-measurement never fired.
  EXPECT_TRUE(e.stale_at(1'500.0));
  EXPECT_TRUE(e.stale_at(1'500.001));
}

TEST(SnapshotStaleness, ZeroTtlNeverGoesStale) {
  SnapshotEntry e;
  e.measured_at_s = 0.0;
  e.ttl_s = 0.0f;
  EXPECT_FALSE(e.stale_at(0.0));
  EXPECT_FALSE(e.stale_at(1e12));
  EXPECT_EQ(e.stale_horizon_s(), std::numeric_limits<double>::infinity());
}

TEST(SnapshotStaleness, ExactBoundaryAtSimulatedYearsOfUptime) {
  // Regression for the timestamp-precision audit: measured_at_s is f64
  // end-to-end (entry, wire, checkpoint), so epoch arithmetic stays exact
  // far past f32's 2^24 integer range. Twenty simulated years in, a
  // 30-day TTL must still flip exactly at the boundary, not an ULP early
  // or late.
  const double twenty_years_s = 20.0 * 365.0 * 86'400.0;  // 6.3072e8
  const float month_s = 30.0f * 86'400.0f;                // 2.592e6, f32-exact
  SnapshotEntry e;
  e.measured_at_s = twenty_years_s;
  e.ttl_s = month_s;
  const double horizon = twenty_years_s + 2'592'000.0;
  EXPECT_DOUBLE_EQ(e.stale_horizon_s(), horizon);
  EXPECT_FALSE(e.stale_at(horizon - 1.0));
  EXPECT_FALSE(e.stale_at(std::nextafter(horizon, 0.0)));
  EXPECT_TRUE(e.stale_at(horizon));
}

TEST(SnapshotStaleness, TtlQuantisesAtFloatIntegerLimit) {
  // ttl_s IS f32 in the 48-byte wire entry: durations beyond 2^24 s
  // (~194 days) quantise to the nearest representable float. This is a
  // documented format property — the TTL ladder tops out at 30 days — and
  // the quantisation must at least be consistent: the entry goes stale at
  // the horizon computed from the *stored* (quantised) value.
  const float quantised = 16'777'217.0f;  // 2^24 + 1 rounds to 2^24
  EXPECT_EQ(quantised, 16'777'216.0f);
  SnapshotEntry e;
  e.measured_at_s = 0.0;
  e.ttl_s = quantised;
  EXPECT_TRUE(e.stale_at(16'777'216.0));
  EXPECT_FALSE(e.stale_at(16'777'215.0));

  // And the stored value survives the disk roundtrip bit-exactly.
  Record r;
  r.prefix = *net::Prefix::parse("10.0.0.0/24");
  r.ttl_s = quantised;
  r.measured_at_s = 6.3072e8;
  SnapshotBuilder b;
  b.add(r);
  std::string error;
  const auto s = Snapshot::from_bytes(b.build(test_meta()), &error);
  ASSERT_NE(s, nullptr) << error;
  EXPECT_EQ(s->entry(0).ttl_s, quantised);
  EXPECT_DOUBLE_EQ(s->entry(0).measured_at_s, 6.3072e8);
}

}  // namespace
}  // namespace geoloc::publish
