#include "util/durable.h"

#include <cerrno>
#include <cstdio>
#include <memory>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "obs/log.h"
#include "obs/metrics.h"
#include "util/env.h"

namespace geoloc::util::durable {

namespace {

// "GLDURBL1" little-endian.
constexpr std::uint64_t kFrameMagic = 0x314C425255444C47ULL;

struct FileCloser {
  void operator()(std::FILE* f) const noexcept {
    if (f) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

/// Durability counters. Bumped on the cold I/O paths only — never per
/// payload byte — so the layer stays invisible to the hot paths it guards.
struct DurableMetrics {
  obs::Counter& writes;
  obs::Counter& write_failures;
  obs::Counter& reads_ok;
  obs::Counter& reads_missing;
  obs::Counter& quarantined;
};

DurableMetrics& metrics() {
  static auto& reg = obs::Registry::instance();
  static DurableMetrics m{reg.counter("durable.writes"),
                          reg.counter("durable.write_failures"),
                          reg.counter("durable.reads_ok"),
                          reg.counter("durable.reads_missing"),
                          reg.counter("durable.quarantined")};
  return m;
}

bool fail(std::string* error, std::string message) {
  if (error) *error = std::move(message);
  metrics().write_failures.add();
  return false;
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

/// Parent directory of `path` ("." when the path has no slash), for the
/// post-rename directory fsync that makes the new directory entry durable.
std::string parent_dir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

bool fsync_dir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

}  // namespace

// -- XXH64 ------------------------------------------------------------------
// Reference: Collet — xxHash fast digest algorithm (XXH64 variant).

namespace {

constexpr std::uint64_t kPrime1 = 0x9E3779B185EBCA87ULL;
constexpr std::uint64_t kPrime2 = 0xC2B2AE3D27D4EB4FULL;
constexpr std::uint64_t kPrime3 = 0x165667B19E3779F9ULL;
constexpr std::uint64_t kPrime4 = 0x85EBCA77C2B2AE63ULL;
constexpr std::uint64_t kPrime5 = 0x27D4EB2F165667C5ULL;

constexpr std::uint64_t rotl64(std::uint64_t x, int r) noexcept {
  return (x << r) | (x >> (64 - r));
}

std::uint64_t read_u64(const std::byte* p) noexcept { return load_u64(p); }
std::uint32_t read_u32(const std::byte* p) noexcept { return load_u32(p); }

constexpr std::uint64_t xxh_round(std::uint64_t acc,
                                  std::uint64_t input) noexcept {
  acc += input * kPrime2;
  acc = rotl64(acc, 31);
  return acc * kPrime1;
}

constexpr std::uint64_t xxh_merge(std::uint64_t acc,
                                  std::uint64_t val) noexcept {
  acc ^= xxh_round(0, val);
  return acc * kPrime1 + kPrime4;
}

}  // namespace

std::uint64_t xxh64(std::span<const std::byte> bytes,
                    std::uint64_t seed) noexcept {
  const std::byte* p = bytes.data();
  const std::byte* const end = p + bytes.size();
  std::uint64_t h;

  if (bytes.size() >= 32) {
    std::uint64_t v1 = seed + kPrime1 + kPrime2;
    std::uint64_t v2 = seed + kPrime2;
    std::uint64_t v3 = seed;
    std::uint64_t v4 = seed - kPrime1;
    do {
      v1 = xxh_round(v1, read_u64(p));
      v2 = xxh_round(v2, read_u64(p + 8));
      v3 = xxh_round(v3, read_u64(p + 16));
      v4 = xxh_round(v4, read_u64(p + 24));
      p += 32;
    } while (p + 32 <= end);
    h = rotl64(v1, 1) + rotl64(v2, 7) + rotl64(v3, 12) + rotl64(v4, 18);
    h = xxh_merge(h, v1);
    h = xxh_merge(h, v2);
    h = xxh_merge(h, v3);
    h = xxh_merge(h, v4);
  } else {
    h = seed + kPrime5;
  }

  h += static_cast<std::uint64_t>(bytes.size());
  while (p + 8 <= end) {
    h ^= xxh_round(0, read_u64(p));
    h = rotl64(h, 27) * kPrime1 + kPrime4;
    p += 8;
  }
  if (p + 4 <= end) {
    h ^= static_cast<std::uint64_t>(read_u32(p)) * kPrime1;
    h = rotl64(h, 23) * kPrime2 + kPrime3;
    p += 4;
  }
  while (p < end) {
    h ^= static_cast<std::uint64_t>(static_cast<std::uint8_t>(*p)) * kPrime5;
    h = rotl64(h, 11) * kPrime1;
    ++p;
  }

  h ^= h >> 33;
  h *= kPrime2;
  h ^= h >> 29;
  h *= kPrime3;
  h ^= h >> 32;
  return h;
}

// -- atomic write primitive -------------------------------------------------

std::string tmp_path_for(const std::string& path) {
  return path + ".tmp." + std::to_string(::getpid());
}

std::string quarantine_path_for(const std::string& path) {
  return path + ".corrupt";
}

bool atomic_write_file(const std::string& path,
                       std::span<const std::byte> bytes, std::string* error) {
  const std::string tmp = tmp_path_for(path);
  {
    FilePtr f{std::fopen(tmp.c_str(), "wb")};
    if (!f) {
      return fail(error, "durable: cannot open staging file: " + tmp);
    }
    if (!bytes.empty() &&
        std::fwrite(bytes.data(), 1, bytes.size(), f.get()) != bytes.size()) {
      f.reset();
      std::remove(tmp.c_str());
      return fail(error, "durable: short write to staging file: " + tmp);
    }
    if (std::fflush(f.get()) != 0 || ::fsync(::fileno(f.get())) != 0) {
      f.reset();
      std::remove(tmp.c_str());
      return fail(error, "durable: flush/fsync failed: " + tmp);
    }
    // fclose after fsync: the data and size are on stable storage before
    // the rename can make the file visible under its final name.
    std::FILE* raw = f.release();
    if (std::fclose(raw) != 0) {
      std::remove(tmp.c_str());
      return fail(error, "durable: close failed: " + tmp);
    }
  }
  return commit_tmp_file(tmp, path, error);
}

bool commit_tmp_file(const std::string& tmp_path, const std::string& path,
                     std::string* error) {
  // Re-fsync via a fresh descriptor: the caller may have streamed into the
  // file through a stack that never fsync'd (std::ofstream has no such
  // call). Redundant after atomic_write_file's own fsync, but cheap.
  const int fd = ::open(tmp_path.c_str(), O_RDONLY);
  if (fd < 0) {
    return fail(error, "durable: staging file vanished: " + tmp_path);
  }
  const bool synced = ::fsync(fd) == 0;
  ::close(fd);
  if (!synced) {
    std::remove(tmp_path.c_str());
    return fail(error, "durable: fsync failed: " + tmp_path);
  }
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    return fail(error, "durable: rename failed: " + tmp_path + " -> " + path);
  }
  // Make the directory entry itself durable; failure here is not data
  // loss (the rename happened), so it degrades to a warning.
  if (!fsync_dir(parent_dir(path))) {
    obs::warn_once(("durable-dirsync:" + parent_dir(path)).c_str(),
                   "durable: directory fsync failed for " + parent_dir(path));
  }
  metrics().writes.add();
  return true;
}

bool quarantine(const std::string& path) {
  const std::string dest = quarantine_path_for(path);
  std::remove(dest.c_str());
  const bool renamed = std::rename(path.c_str(), dest.c_str()) == 0;
  if (!renamed) std::remove(path.c_str());
  metrics().quarantined.add();
  obs::warn_once(("durable-quarantine:" + path).c_str(),
                 "durable: corrupt artifact quarantined: " + path + " -> " +
                     (renamed ? dest : std::string("(removed)")));
  return renamed;
}

FileBytes read_file(const std::string& path) {
  FileBytes f;
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    f.status = errno == ENOENT ? ReadStatus::NotFound : ReadStatus::IoError;
    f.what = "cannot open";
    return f;
  }
  struct ::stat st {};
  bool ok = ::fstat(fd, &st) == 0;
  if (ok) {
    // Pre-sized to the whole file: no chunk copies, no vector doubling.
    // Size-less files (st_size 0: pipes, procfs) and growth past the fstat
    // size go through the small spill buffer.
    f.bytes.resize(st.st_size > 0 ? static_cast<std::size_t>(st.st_size) : 0);
    std::size_t have = 0;
    for (;;) {
      std::byte spill[4096];
      const bool full = have == f.bytes.size();
      std::byte* dst = full ? spill : f.bytes.data() + have;
      const std::size_t room = full ? sizeof spill : f.bytes.size() - have;
      const ssize_t n = ::read(fd, dst, room);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        ok = n == 0;
        break;
      }
      if (full) f.bytes.insert(f.bytes.end(), spill, spill + n);
      have += static_cast<std::size_t>(n);
    }
    f.bytes.resize(have);  // the file shrank after fstat
  }
  ::close(fd);
  if (!ok) {
    f.bytes = {};
    f.what = "read error";
    return f;
  }
  f.status = ReadStatus::Ok;
  return f;
}

// -- framed files -----------------------------------------------------------

bool write_framed(const std::string& path, std::uint64_t magic,
                  std::uint32_t version, std::span<const std::byte> payload,
                  std::string* error) {
  std::vector<std::byte> out(kFrameOverheadBytes + payload.size());
  std::byte* h = out.data();
  store_u64(h + 0, kFrameMagic);
  store_u64(h + 8, magic);
  store_u32(h + 16, version);
  store_u32(h + 20, 0);
  store_u64(h + 24, payload.size());
  store_u64(h + 32, xxh64(std::span<const std::byte>(h, 32)));
  if (!payload.empty()) {
    std::memcpy(h + kFrameHeaderBytes, payload.data(), payload.size());
  }
  store_u64(h + kFrameHeaderBytes + payload.size(), xxh64(payload));
  return atomic_write_file(path, out, error);
}

namespace {

/// The one frame validator both readers run over a whole file's bytes:
/// length floor, frame magic, header checksum, artifact magic, payload
/// length, payload checksum, in that order. Returns why the frame is
/// corrupt, or an empty string with `*payload` and `*version` set.
std::string check_frame(std::span<const std::byte> file, std::uint64_t magic,
                        std::span<const std::byte>* payload,
                        std::uint32_t* version) {
  if (file.size() < kFrameOverheadBytes) {
    return "truncated frame (" + std::to_string(file.size()) + " bytes)";
  }
  const std::byte* h = file.data();
  if (load_u64(h + 0) != kFrameMagic) return "bad frame magic";
  if (load_u64(h + 32) != xxh64(file.first(32))) {
    return "header checksum mismatch";
  }
  if (load_u64(h + 8) != magic) return "foreign artifact magic";
  const std::uint64_t payload_len = load_u64(h + 24);
  if (payload_len != file.size() - kFrameOverheadBytes) {
    return "payload length " + std::to_string(payload_len) +
           " does not match file size " + std::to_string(file.size());
  }
  const auto body = file.subspan(kFrameHeaderBytes, payload_len);
  if (load_u64(h + kFrameHeaderBytes + payload_len) != xxh64(body)) {
    return "payload checksum mismatch";
  }
  *payload = body;
  *version = load_u32(h + 16);
  return {};
}

}  // namespace

FramedRead read_framed(const std::string& path, std::uint64_t magic,
                       bool quarantine_corrupt) {
  FramedRead r;
  const auto corrupt = [&](std::string why) -> FramedRead& {
    r.status = ReadStatus::Corrupt;
    r.error = "durable: " + path + ": " + std::move(why);
    r.payload.clear();
    if (quarantine_corrupt) quarantine(path);
    return r;
  };

  FileBytes file = read_file(path);
  if (file.status != ReadStatus::Ok) {
    r.status = file.status;
    r.error = std::string("durable: ") + file.what + ": " + path;
    if (r.status == ReadStatus::NotFound) metrics().reads_missing.add();
    return r;
  }

  std::span<const std::byte> payload;
  std::string why = check_frame(file.bytes, magic, &payload, &r.version);
  if (!why.empty()) return corrupt(std::move(why));
  r.status = ReadStatus::Ok;
  // Strip the header and trailer in place: the file buffer becomes the
  // payload, with no second payload-sized allocation.
  file.bytes.resize(kFrameHeaderBytes + payload.size());
  file.bytes.erase(file.bytes.begin(),
                   file.bytes.begin() + static_cast<std::ptrdiff_t>(
                                            kFrameHeaderBytes));
  r.payload = std::move(file.bytes);
  metrics().reads_ok.add();
  return r;
}

namespace {

/// Holds a FramedRead so its payload vector outlives the view aliasing it.
struct BufferKeepalive {
  std::vector<std::byte> bytes;
};

/// munmap-on-destruction owner of a whole-file read-only mapping.
struct MmapKeepalive {
  void* base = nullptr;
  std::size_t length = 0;
  ~MmapKeepalive() {
    if (base != nullptr && base != MAP_FAILED) ::munmap(base, length);
  }
  MmapKeepalive() = default;
  MmapKeepalive(const MmapKeepalive&) = delete;
  MmapKeepalive& operator=(const MmapKeepalive&) = delete;
};

/// The buffered fallback: run read_framed and re-home its payload vector in
/// the view's keepalive so the span stays valid.
FramedView fallback_buffered(const std::string& path, std::uint64_t magic,
                             bool quarantine_corrupt) {
  FramedView v;
  FramedRead r = read_framed(path, magic, quarantine_corrupt);
  v.status = r.status;
  v.version = r.version;
  v.error = std::move(r.error);
  v.mapped = false;
  if (r.ok()) {
    auto keep = std::make_shared<BufferKeepalive>();
    keep->bytes = std::move(r.payload);
    v.payload = keep->bytes;
    v.keepalive = std::move(keep);
  }
  return v;
}

}  // namespace

FramedView read_framed_mapped(const std::string& path, std::uint64_t magic,
                              bool quarantine_corrupt) {
  if (env::flag("GEOLOC_DURABLE_NO_MMAP")) {
    return fallback_buffered(path, magic, quarantine_corrupt);
  }

  FramedView v;
  const auto corrupt = [&](std::string why) -> FramedView& {
    v.status = ReadStatus::Corrupt;
    v.error = "durable: " + path + ": " + std::move(why);
    v.payload = {};
    v.keepalive.reset();
    if (quarantine_corrupt) quarantine(path);
    return v;
  };

  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) {
      v.status = ReadStatus::NotFound;
      v.error = "durable: cannot open: " + path;
      metrics().reads_missing.add();
      return v;
    }
    return fallback_buffered(path, magic, quarantine_corrupt);
  }
  struct ::stat st {};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    return fallback_buffered(path, magic, quarantine_corrupt);
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  // A zero-length file cannot be mapped; the buffered path reports it as a
  // truncated frame. Any other short file fails check_frame below.
  void* base = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping holds its own reference to the file
  if (base == MAP_FAILED) {
    return fallback_buffered(path, magic, quarantine_corrupt);
  }
  auto keep = std::make_shared<MmapKeepalive>();
  keep->base = base;
  keep->length = size;

  std::string why =
      check_frame({static_cast<const std::byte*>(base), size}, magic,
                  &v.payload, &v.version);
  if (!why.empty()) return corrupt(std::move(why));
  v.status = ReadStatus::Ok;
  v.keepalive = std::move(keep);
  v.mapped = true;
  metrics().reads_ok.add();
  return v;
}

}  // namespace geoloc::util::durable
