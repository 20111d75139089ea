// The snapshot container: a tagged, versioned, CRC-guarded section file.
//
// One format carries both artifact kinds the subsystem produces:
//   * checkpoints  — a run manifest plus one state section per machine
//     component, written by `emx_run --checkpoint-every` and by the
//     automatic crash dump on watchdog / checker exits;
//   * recordings   — a run manifest plus periodic per-component digest
//     frames, written by `emx_run --record` and diffed by `--replay`.
//
// Layout (all integers little-endian):
//   u32 magic "EMXS"   u32 format_version   u32 kind   u32 section_count
//   sections: { str name, u32 payload_size, payload bytes, u32 crc32 }
//   u32 file_crc  (over every byte before it)
//
// Versioning / compatibility policy (docs/CHECKPOINT.md):
//   * kFormatVersion bumps whenever any section's encoding changes;
//   * the reader accepts only kFormatVersion and rejects older files with
//     one message ("format vN predates v3; re-capture with this build"):
//     their state sections can never byte-verify against a rebuilt
//     machine, so there is nothing a loader shim could usefully load;
//   * the golden format test (tests/snapshot/golden_format_test.cpp)
//     keeps a checked-in file for the current version that must decode,
//     resume and byte-verify;
//   * section payloads are opaque here; consumers version their own
//     encodings through the format version.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/serializer.hpp"

namespace emx::snapshot {

inline constexpr std::uint32_t kMagic = 0x53584D45u;  // "EMXS" little-endian
// v1: binary-heap EventQueue payload (pending events in heap-array
//     order, cancelled events saved as explicit tombstone records).
// v2: canonical EventQueue payload (live events sorted by sequence
//     number, cancelled events dropped).
// v3: canonical "network" section for the fast model — in-flight packets
//     as per-source self-loop FIFOs and per-destination fabric queues
//     keyed by canonical injection id, replacing the v2 pool-slot
//     encoding whose slot indices depended on allocation history, so the
//     section is storage-order-independent. Container layout unchanged;
//     v1/v2 files are rejected at read time.
inline constexpr std::uint32_t kFormatVersion = 3;

enum class FileKind : std::uint32_t {
  kCheckpoint = 1,  ///< manifest + full per-component state sections
  kRecording = 2,   ///< manifest + periodic digest frames
};

struct Section {
  std::string name;
  std::vector<std::uint8_t> payload;

  std::uint32_t crc() const { return crc32(payload.data(), payload.size()); }
};

class SnapshotFile {
 public:
  FileKind kind = FileKind::kCheckpoint;
  /// Version read from disk (== kFormatVersion for freshly built files).
  std::uint32_t version = kFormatVersion;
  std::vector<Section> sections;

  void add(std::string name, const Serializer& s) {
    sections.push_back(Section{std::move(name), s.data()});
  }
  const Section* find(std::string_view name) const;

  std::vector<std::uint8_t> encode() const;

  /// Decodes `data` into *this. Returns "" on success, else a readable
  /// error (bad magic, a version other than kFormatVersion, truncated
  /// file, CRC mismatch naming the damaged section).
  std::string decode(const std::uint8_t* data, std::size_t size);

  /// Writes encode() to `path` atomically (unique temp file + fsync +
  /// rename; common/fsio.hpp). A crash mid-write leaves the previous
  /// file intact under `path`, never a truncated hybrid, and concurrent
  /// writers racing on one target cannot interleave. Returns "" on
  /// success, else an error message.
  std::string write_file(const std::string& path) const;
  /// Reads + decodes `path`. Returns "" on success, else an error.
  std::string read_file(const std::string& path);
};

}  // namespace emx::snapshot
