#include "common/binio.hpp"

#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

namespace repro::common {

namespace {

using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

/// t[0] is the bytewise table. t[k][b] is the CRC state after byte b
/// followed by k zero bytes, so eight table reads advance eight bytes.
CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    }
  }
  return t;
}

std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace

// Slicing-by-8: eight bytes per step through eight tables, then the
// bytewise loop for the tail. Same CRC as the bytewise loop alone.
std::uint32_t crc32(std::span<const std::uint8_t> data, std::uint32_t seed) {
  static const CrcTables t = make_crc_tables();
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = load_le32(p) ^ c;
    const std::uint32_t hi = load_le32(p + 4);
    c = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
        t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) c = t[0][(c ^ *p) & 0xFF] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

std::string hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

void BinaryWriter::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
}

void BinaryWriter::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
}

void BinaryWriter::f64(double v) {
  std::uint64_t bits;
  static_assert(sizeof bits == sizeof v);
  std::memcpy(&bits, &v, sizeof bits);
  u64(bits);
}

void BinaryWriter::f32(float v) {
  std::uint32_t bits;
  static_assert(sizeof bits == sizeof v);
  std::memcpy(&bits, &v, sizeof bits);
  u32(bits);
}

void BinaryWriter::str(const std::string& s) {
  u64(s.size());
  bytes(s.data(), s.size());
}

void BinaryWriter::bytes(const void* p, std::size_t n) {
  buf_.append(static_cast<const char*>(p), n);
}

bool BinaryReader::take(void* out, std::size_t n) {
  if (!ok_ || data_.size() - pos_ < n) {
    ok_ = false;
    return false;
  }
  std::memcpy(out, data_.data() + pos_, n);
  pos_ += n;
  return true;
}

bool BinaryReader::u8(std::uint8_t& v) { return take(&v, 1); }

bool BinaryReader::u32(std::uint32_t& v) {
  std::uint8_t b[4];
  if (!take(b, 4)) return false;
  v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(b[i]) << (8 * i);
  return true;
}

bool BinaryReader::u64(std::uint64_t& v) {
  std::uint8_t b[8];
  if (!take(b, 8)) return false;
  v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(b[i]) << (8 * i);
  return true;
}

bool BinaryReader::i32(std::int32_t& v) {
  std::uint32_t u;
  if (!u32(u)) return false;
  v = static_cast<std::int32_t>(u);
  return true;
}

bool BinaryReader::i64(std::int64_t& v) {
  std::uint64_t u;
  if (!u64(u)) return false;
  v = static_cast<std::int64_t>(u);
  return true;
}

bool BinaryReader::f64(double& v) {
  std::uint64_t bits;
  if (!u64(bits)) return false;
  std::memcpy(&v, &bits, sizeof v);
  return true;
}

bool BinaryReader::f32(float& v) {
  std::uint32_t bits;
  if (!u32(bits)) return false;
  std::memcpy(&v, &bits, sizeof v);
  return true;
}

bool BinaryReader::str(std::string& s) {
  std::uint64_t n;
  if (!u64(n)) return false;
  // A length prefix larger than the bytes left is corruption, not a
  // request to allocate 2^63 bytes.
  if (n > remaining()) {
    ok_ = false;
    return false;
  }
  s.assign(data_.data() + pos_, static_cast<std::size_t>(n));
  pos_ += static_cast<std::size_t>(n);
  return true;
}

std::string seal_artifact(std::uint32_t magic, std::uint32_t version,
                          const std::string& payload) {
  BinaryWriter w;
  w.u32(magic);
  w.u32(version);
  w.bytes(payload.data(), payload.size());
  const std::uint32_t crc = crc32_str(w.buffer());
  w.u32(crc);
  return w.take();
}

StatusOr<std::string> open_artifact(const std::string& raw,
                                    std::uint32_t magic,
                                    std::uint32_t max_version) {
  constexpr std::size_t kHeader = 8, kTrailer = 4;
  if (raw.size() < kHeader + kTrailer) {
    return Status::DataLoss("artifact shorter than its envelope (" +
                            std::to_string(raw.size()) + " bytes)");
  }
  // The CRC reads a view of `raw`; only the payload is copied, once.
  const std::string_view body =
      std::string_view(raw).substr(0, raw.size() - kTrailer);
  BinaryReader r(raw);
  std::uint32_t got_magic = 0, got_version = 0;
  r.u32(got_magic);
  r.u32(got_version);
  if (got_magic != magic) {
    return Status::DataLoss("artifact magic mismatch");
  }
  if (got_version > max_version) {
    return Status::DataLoss("artifact format version " +
                            std::to_string(got_version) +
                            " newer than supported " +
                            std::to_string(max_version));
  }
  BinaryReader tail(std::string_view(raw).substr(raw.size() - kTrailer));
  std::uint32_t stored_crc = 0;
  tail.u32(stored_crc);
  if (crc32_str(body) != stored_crc) {
    return Status::DataLoss("artifact CRC mismatch");
  }
  return std::string(body.substr(kHeader));
}

Status atomic_write_file(const std::string& path, const std::string& data) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (!f) {
    return Status::IoError("cannot open " + tmp + ": " +
                           std::strerror(errno));
  }
  // Every step is checked: on a full disk fwrite or fflush (not fclose)
  // is where ENOSPC actually surfaces, and an unchecked one would leave
  // a silently truncated artifact behind.
  bool write_ok =
      data.empty() || std::fwrite(data.data(), 1, data.size(), f) == data.size();
  write_ok = write_ok && std::fflush(f) == 0;
  write_ok = write_ok && ::fsync(::fileno(f)) == 0;
  const int saved_errno = errno;
  if (std::fclose(f) != 0) write_ok = false;
  if (!write_ok) {
    std::error_code ec;
    std::filesystem::remove(tmp, ec);
    return Status::IoError("write to " + tmp + " failed: " +
                           std::strerror(saved_errno ? saved_errno : errno));
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::error_code ec2;
    std::filesystem::remove(tmp, ec2);
    return Status::IoError("rename " + tmp + " -> " + path + " failed: " +
                           ec.message());
  }
  return Status::Ok();
}

StatusOr<std::string> read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) {
    if (errno == ENOENT) return Status::NotFound(path + " does not exist");
    return Status::IoError("cannot open " + path + ": " +
                           std::strerror(errno));
  }
  std::string out;
  char buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  const bool read_ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!read_ok) return Status::IoError("read from " + path + " failed");
  return out;
}

}  // namespace repro::common
