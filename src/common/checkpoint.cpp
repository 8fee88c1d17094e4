#include "common/checkpoint.hpp"

#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "common/binio.hpp"
#include "common/fault.hpp"
#include "common/json_scan.hpp"
#include "common/json_writer.hpp"

namespace repro::common {

namespace {

constexpr int kManifestVersion = 1;
constexpr const char* kLockName = ".lock";

std::string hex32(std::uint32_t v) {
  char buf[12];
  std::snprintf(buf, sizeof buf, "%08x", v);
  return buf;
}

/// Artifact names come from our own fold/design naming, but guard
/// against path tricks anyway: a name is a single path component (and
/// never the lock file).
bool valid_name(const std::string& name) {
  if (name.empty() || name == "." || name == ".." || name == kLockName) {
    return false;
  }
  return name.find('/') == std::string::npos &&
         name.find('\\') == std::string::npos;
}

/// Extracts the manifest schema fields from a parsed document. Any
/// shape mismatch simply yields fewer fields — the caller treats an
/// unusable manifest as a fresh checkpoint.
void extract_manifest(const JsonValue& doc, std::uint64_t& run_key,
                      int& version,
                      std::map<std::string,
                               std::pair<std::uint64_t, std::uint32_t>>&
                          artifacts) {
  run_key = std::strtoull(doc.get_string("run_key").c_str(), nullptr, 16);
  version = static_cast<int>(doc.get_i64("format_version", 0));
  const JsonValue* arr = doc.find("artifacts");
  if (!arr || !arr->is_array()) return;
  for (const JsonValue& item : arr->items) {
    const std::string name = item.get_string("name");
    if (name.empty()) continue;
    const std::uint64_t size = item.get_u64("size", 0);
    const std::uint32_t crc = static_cast<std::uint32_t>(
        std::strtoul(item.get_string("crc32").c_str(), nullptr, 16));
    artifacts[name] = {size, crc};
  }
}

/// Sweeps `*.tmp` leftovers from writes torn by a crash. Safe because
/// the manifest only ever references final names: a temp file is either
/// garbage or a write that never committed (and will be recomputed).
void sweep_torn_temps(const std::string& dir, DiagnosticSink& sink) {
  std::error_code ec;
  int swept = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    const std::string name = entry.path().filename().string();
    if (name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0) {
      std::error_code rm_ec;
      std::filesystem::remove(entry.path(), rm_ec);
      if (!rm_ec) ++swept;
    }
  }
  if (swept > 0) {
    sink.note("checkpoint.stale_tmp", 0,
              "swept " + std::to_string(swept) +
                  " torn temp file(s) from an interrupted write");
  }
}

}  // namespace

std::string CheckpointManager::lock_path(const std::string& dir) {
  return dir + "/" + kLockName;
}

StatusOr<CheckpointManager> CheckpointManager::open(const std::string& dir,
                                                    std::uint64_t run_key,
                                                    DiagnosticSink& sink) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IoError("cannot create checkpoint dir " + dir + ": " +
                           ec.message());
  }
  return open_impl(dir, run_key, /*adopt_key=*/false, sink);
}

StatusOr<CheckpointManager> CheckpointManager::open_existing(
    const std::string& dir, DiagnosticSink& sink) {
  std::error_code ec;
  if (!std::filesystem::is_directory(dir, ec)) {
    return Status::NotFound("checkpoint dir " + dir + " does not exist");
  }
  return open_impl(dir, /*run_key=*/0, /*adopt_key=*/true, sink);
}

StatusOr<CheckpointManager> CheckpointManager::open_impl(
    const std::string& dir, std::uint64_t run_key, bool adopt_key,
    DiagnosticSink& sink) {
  // Lock before reading anything: the manifest parse below must see a
  // quiescent directory, and a second process must fail here — loudly —
  // rather than interleave manifest rewrites with ours.
  StatusOr<FileLock> lock =
      FileLock::acquire(lock_path(dir), "checkpoint", sink);
  if (!lock.ok()) return lock.status();

  CheckpointManager mgr;
  mgr.dir_ = dir;
  mgr.run_key_ = run_key;
  mgr.lock_ = std::move(*lock);
  sweep_torn_temps(dir, sink);

  const std::string manifest_path = dir + "/manifest.json";
  StatusOr<std::string> text = read_file(manifest_path);
  if (!text.ok()) {
    if (text.status().code() != StatusCode::kNotFound) {
      return text.status();  // unreadable manifest: surface, don't guess
    }
    return mgr;  // fresh checkpoint
  }

  std::uint64_t stored_key = 0;
  int version = 0;
  std::map<std::string, std::pair<std::uint64_t, std::uint32_t>> artifacts;
  StatusOr<JsonValue> doc = parse_json(*text);
  if (!doc.ok() || !doc->is_object()) {
    sink.warning("checkpoint.corrupt_manifest", 0,
                 "manifest.json is unparseable; starting a fresh checkpoint");
    return mgr;
  }
  extract_manifest(*doc, stored_key, version, artifacts);
  if (version > kManifestVersion) {
    sink.warning("checkpoint.manifest_version", 0,
                 "manifest format version " + std::to_string(version) +
                     " is newer than supported; starting fresh");
    return mgr;
  }
  if (adopt_key) {
    mgr.run_key_ = stored_key;
  } else if (stored_key != run_key) {
    sink.warning("checkpoint.run_key_mismatch", 0,
                 "checkpoint belongs to run " + hex64(stored_key) +
                     " but this run is " + hex64(run_key) +
                     "; ignoring its artifacts");
    return mgr;
  }
  for (const auto& [name, entry] : artifacts) {
    if (!valid_name(name)) continue;
    mgr.entries_[name] = Entry{entry.first, entry.second};
  }
  return mgr;
}

std::string CheckpointManager::path_of(const std::string& name) const {
  return dir_ + "/" + name;
}

bool CheckpointManager::has(const std::string& name) const {
  std::lock_guard<std::mutex> lock(*mutex_);
  return entries_.count(name) > 0;
}

std::vector<std::string> CheckpointManager::names() const {
  std::lock_guard<std::mutex> lock(*mutex_);
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) out.push_back(name);
  return out;
}

StatusOr<std::string> CheckpointManager::read(const std::string& name,
                                              DiagnosticSink& sink) {
  Entry expected;
  {
    std::lock_guard<std::mutex> lock(*mutex_);
    auto it = entries_.find(name);
    if (it == entries_.end()) {
      return Status::NotFound("artifact " + name + " not in checkpoint");
    }
    expected = it->second;
  }
  const auto fail = [&](const std::string& why) -> Status {
    sink.warning("checkpoint.corrupt_artifact", 0,
                 name + ": " + why + "; will recompute");
    std::lock_guard<std::mutex> lock(*mutex_);
    entries_.erase(name);
    return Status::DataLoss(name + ": " + why);
  };
  StatusOr<std::string> data = read_file(path_of(name));
  if (!data.ok()) return fail(data.status().to_string());
  if (data->size() != expected.size) {
    return fail("size " + std::to_string(data->size()) +
                " != manifest size " + std::to_string(expected.size));
  }
  if (crc32_str(*data) != expected.crc) return fail("CRC mismatch");
  return std::move(*data);
}

Status CheckpointManager::write(const std::string& name,
                                const std::string& data) {
  if (!valid_name(name)) {
    return Status::InvalidArgument("bad artifact name: " + name);
  }
  // The commit point the REPRO_FAULT hook counts. kCorrupt writes
  // damaged bytes while the manifest records the *true* size/CRC — the
  // exact signature of a torn write, guaranteed to fail read-back
  // validation. kHang parks inside on_artifact_commit and never
  // returns. kCrashAfter SIGKILLs below, after the commit is durable.
  const fault::Action action = fault::on_artifact_commit();

  // Artifact first, then the manifest that references it: after a crash
  // in between, the manifest simply does not know about the new file.
  Status s;
  if (action == fault::Action::kCorrupt) {
    std::string damaged = data;
    fault::corrupt_bytes(damaged);
    s = atomic_write_file(path_of(name), damaged);
  } else {
    s = atomic_write_file(path_of(name), data);
  }
  if (!s.ok()) return s;
  {
    std::lock_guard<std::mutex> lock(*mutex_);
    entries_[name] = Entry{data.size(), crc32_str(data)};
    s = write_manifest_locked();
  }
  if (action == fault::Action::kCrashAfter) fault::crash_now();
  return s;
}

Status CheckpointManager::remove(const std::string& name) {
  std::lock_guard<std::mutex> lock(*mutex_);
  if (entries_.erase(name) == 0) return Status::Ok();
  std::error_code ec;
  std::filesystem::remove(path_of(name), ec);  // best-effort
  return write_manifest_locked();
}

Status CheckpointManager::write_manifest_locked() {
  std::vector<std::string> arts;
  arts.reserve(entries_.size());
  for (const auto& [name, e] : entries_) {
    arts.push_back(JsonObject()
                       .field("name", name)
                       .field("size", static_cast<unsigned long>(e.size))
                       .field("crc32", hex32(e.crc))
                       .str());
  }
  const std::string json = JsonObject()
                               .field("format_version", kManifestVersion)
                               .field("run_key", hex64(run_key_))
                               .field_raw("artifacts", json_array(arts))
                               .str();
  return atomic_write_file(dir_ + "/manifest.json", json + "\n");
}

}  // namespace repro::common
