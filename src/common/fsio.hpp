// Crash-safe file-system primitives for the job-engine layers.
//
// Everything that persists run artifacts (snapshots, sweep results,
// journals) funnels through these helpers so the durability story is
// written once:
//
//   * atomic_write_file — write to a uniquely named temp file in the
//     destination directory, fsync the data, rename over the target,
//     then fsync the directory. A SIGKILL (or power cut) at any point
//     leaves either the old file or the new file under the final name,
//     never a truncated hybrid; concurrent writers to the same target
//     cannot interleave because every writer owns a distinct temp file.
//   * probe helpers — prove a directory or file path is creatable and
//     writable *before* a long run burns cycles, so path typos surface
//     as an immediate exit 2 instead of a lost night.
#pragma once

#include <string>

namespace emx::fsio {

/// Atomically replaces `path` with `bytes` (temp file + fsync + rename +
/// directory fsync). Returns "" on success, else a readable error that
/// names the path and the failing step. The temp file is always cleaned
/// up on failure; stale `*.emxtmp.*` files from a killed writer are
/// harmless (unique names, never matched by snapshot/result globs).
std::string atomic_write_file(const std::string& path, const void* data,
                              std::size_t size);
std::string atomic_write_file(const std::string& path,
                              const std::string& bytes);

/// Reads the whole file at `path` into `out`. Returns false when it
/// cannot be opened.
bool read_file(const std::string& path, std::string& out);

/// Creates `dir` (and parents) if needed and proves it is writable by
/// creating and removing a probe file inside it. Returns "" on success.
std::string ensure_writable_dir(const std::string& dir);

/// Proves `path` can be created and written without disturbing existing
/// content (opens for append; a file created by the probe is removed
/// again). Returns "" on success.
std::string probe_writable_file(const std::string& path);

/// Appends `line` (which must include its trailing newline) to the file
/// descriptor-backed append-only file at `path`, fsync'ing the write.
/// Used by the job journal; open/creat is implicit per call so a
/// restarted sweep or daemon needs no handle state. Returns "" on
/// success.
std::string append_line_fsync(const std::string& path,
                              const std::string& line);

}  // namespace emx::fsio
