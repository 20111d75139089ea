#include "snapshot/format.hpp"

#include <cstdio>

#include "common/fsio.hpp"

namespace emx::snapshot {

namespace {

std::string format_msg(const char* fmt, unsigned long long a = 0,
                       unsigned long long b = 0) {
  char buf[160];
  std::snprintf(buf, sizeof buf, fmt, a, b);
  return buf;
}

}  // namespace

const Section* SnapshotFile::find(std::string_view name) const {
  for (const auto& s : sections)
    if (s.name == name) return &s;
  return nullptr;
}

std::vector<std::uint8_t> SnapshotFile::encode() const {
  Serializer out;
  out.u32(kMagic);
  out.u32(kFormatVersion);
  out.u32(static_cast<std::uint32_t>(kind));
  out.u32(static_cast<std::uint32_t>(sections.size()));
  for (const auto& s : sections) {
    out.str(s.name);
    out.u32(static_cast<std::uint32_t>(s.payload.size()));
    out.bytes(s.payload.data(), s.payload.size());
    out.u32(s.crc());
  }
  out.u32(out.crc());
  return out.data();
}

std::string SnapshotFile::decode(const std::uint8_t* data, std::size_t size) {
  // Whole-file CRC first: it covers headers and section names, the
  // per-section CRCs only their payloads.
  if (size < 20) return "not a snapshot file (too short)";
  const std::size_t body = size - 4;
  std::uint32_t stored_file_crc = 0;
  for (std::size_t i = 0; i < 4; ++i)
    stored_file_crc |= static_cast<std::uint32_t>(data[body + i]) << (8 * i);
  if (stored_file_crc != crc32(data, body))
    return "file CRC mismatch (corrupt or truncated snapshot)";
  Deserializer d(data, body);
  if (d.u32() != kMagic) return "not a snapshot file (bad magic)";
  version = d.u32();
  // One layout per build: older files carry section encodings a rebuilt
  // machine can never byte-verify against, so they are refused here.
  if (version < kFormatVersion)
    return format_msg("format v%llu predates v%llu; re-capture with this build",
                      version, kFormatVersion);
  if (version > kFormatVersion)
    return format_msg(
        "snapshot format version %llu is newer than this build "
        "understands (max %llu)",
        version, kFormatVersion);
  const std::uint32_t raw_kind = d.u32();
  if (raw_kind != static_cast<std::uint32_t>(FileKind::kCheckpoint) &&
      raw_kind != static_cast<std::uint32_t>(FileKind::kRecording))
    return format_msg("unknown snapshot kind %llu", raw_kind);
  kind = static_cast<FileKind>(raw_kind);
  const std::uint32_t count = d.u32();
  sections.clear();
  sections.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    Section s;
    s.name = d.str();
    const std::uint32_t payload_size = d.u32();
    if (payload_size > d.remaining()) return "snapshot truncated mid-section";
    s.payload.resize(payload_size);
    d.bytes(s.payload.data(), payload_size);
    const std::uint32_t stored_crc = d.u32();
    if (!d.ok()) return "snapshot truncated mid-section";
    if (stored_crc != s.crc())
      return "section '" + s.name + "' failed its CRC check (corrupt snapshot)";
    sections.push_back(std::move(s));
  }
  if (d.remaining() != 0) return "trailing bytes after the last section";
  return "";
}

std::string SnapshotFile::write_file(const std::string& path) const {
  // Crash-atomic publish: unique temp file + fsync + rename + dir fsync.
  // A SIGKILL mid-checkpoint leaves at worst a stale .emxtmp file that no
  // snapshot glob matches; the name `path` only ever points at a complete,
  // CRC-valid snapshot — and concurrent writers (a timed-out worker's
  // orphan racing its restarted replacement) each own a private temp
  // file, so neither can corrupt what the other renames into place.
  const std::vector<std::uint8_t> bytes = encode();
  return fsio::atomic_write_file(path, bytes.data(), bytes.size());
}

std::string SnapshotFile::read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return "cannot open snapshot '" + path + "'";
  std::vector<std::uint8_t> bytes;
  std::uint8_t chunk[65536];
  std::size_t got = 0;
  while ((got = std::fread(chunk, 1, sizeof chunk, f)) > 0)
    bytes.insert(bytes.end(), chunk, chunk + got);
  std::fclose(f);
  const std::string err = decode(bytes.data(), bytes.size());
  return err.empty() ? "" : "'" + path + "': " + err;
}

}  // namespace emx::snapshot
