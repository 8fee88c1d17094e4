// Checksummed binary serialization primitives for checkpoint artifacts.
//
// A serialized artifact is a header (4-byte magic + u32 format version),
// a payload written through BinaryWriter, and a trailing CRC32 of
// everything before it. BinaryReader is bounds-checked and returns
// Status instead of throwing, because a checkpoint file on disk is
// third-party input by the time it is read back: it may be truncated by
// a crash, half-written by a full disk, or bit-rotted — all of which
// must surface as a structured "corrupt artifact" condition that the
// caller can answer with a recompute, never as UB or a crash.
//
// Doubles are serialized as their IEEE-754 bit patterns (u64), so a
// round trip is bit-exact — the property the resume-determinism
// argument rests on. All integers are little-endian fixed-width.
//
// atomic_write_file implements write-to-temp-then-rename with fsync:
// after a crash at any instant, the destination path holds either the
// complete previous content or the complete new content, never a mix.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"

namespace repro::common {

/// CRC-32 (IEEE 802.3, reflected 0xEDB88320) of `data`; `seed` chains
/// incremental computations (pass the previous return value).
std::uint32_t crc32(std::span<const std::uint8_t> data,
                    std::uint32_t seed = 0);
inline std::uint32_t crc32_str(std::string_view s) {
  return crc32({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
}

/// `v` as 16 lowercase hex digits ("%016llx"): the one spelling of
/// digests, run keys and payload fingerprints in files, JSON and HTTP
/// headers.
std::string hex64(std::uint64_t v);

/// Appends fixed-width little-endian values to a byte string.
class BinaryWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v);  ///< IEEE-754 bit pattern, bit-exact round trip
  void f32(float v);
  void str(const std::string& s);  ///< u64 length + raw bytes
  void bytes(const void* p, std::size_t n);

  const std::string& buffer() const { return buf_; }
  std::string take() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  std::string buf_;
};

/// Bounds-checked reader over a byte string; every accessor returns
/// false once the buffer is exhausted or a length prefix is implausible,
/// and `ok()` / `status()` report the failure. Reads after a failure are
/// no-ops, so a decode function can check once at the end.
class BinaryReader {
 public:
  explicit BinaryReader(std::string_view data) : data_(data) {}

  bool u8(std::uint8_t& v);
  bool u32(std::uint32_t& v);
  bool u64(std::uint64_t& v);
  bool i32(std::int32_t& v);
  bool i64(std::int64_t& v);
  bool f64(double& v);
  bool f32(float& v);
  bool str(std::string& s);

  bool ok() const { return ok_; }
  std::size_t remaining() const { return data_.size() - pos_; }
  Status status() const {
    return ok_ ? Status::Ok()
               : Status::DataLoss("truncated or malformed binary artifact");
  }

 private:
  bool take(void* out, std::size_t n);

  std::string_view data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

/// Wraps `payload` in (magic, version, payload, crc32) — the on-disk
/// artifact envelope.
std::string seal_artifact(std::uint32_t magic, std::uint32_t version,
                          const std::string& payload);

/// Validates the envelope: magic, version <= max_version, CRC. Returns
/// the payload, or kDataLoss describing what was wrong.
StatusOr<std::string> open_artifact(const std::string& raw,
                                    std::uint32_t magic,
                                    std::uint32_t max_version);

/// Writes `data` to `path` crash-safely: temp file in the same
/// directory, fwrite/fflush/fsync/fclose all checked, then rename over
/// the destination. On any failure the temp file is removed and the
/// destination is untouched.
Status atomic_write_file(const std::string& path, const std::string& data);

/// Reads a whole file; kNotFound if it does not exist, kIoError on
/// read failure.
StatusOr<std::string> read_file(const std::string& path);

}  // namespace repro::common
