// Append-only, CRC-framed job journal.
//
// The journal is the job core's only durable memory: one JSON line per
// job-state transition, fsync'd before the transition is acted on, so a
// SIGKILL'd sweep or daemon re-invoked over the same output directory replays
// the journal and resumes exactly where the filesystem says it was —
// never where in-memory state claimed.
//
// Line format (formatted by hand, not via json::Value, so the CRC frame
// is under our control):
//
//   {"seq":N,"event":"...","key":"...",...,"crc":"xxxxxxxx"}\n
//
// The crc field is CRC-32 of every byte of the line before the
// `,"crc":"` marker. That framing distinguishes the two corruption
// cases a crash-tolerant log must treat differently:
//
//   * a torn final line (the write the crash interrupted) — dropped
//     with a warning; the core redoes that transition;
//   * a damaged or tampered interior line — a hard error naming the
//     cell, because silently skipping it could resurrect a completed
//     job or double-count a retry.
//
// Duplicate terminal records for one job are tolerated only when they
// agree (same result CRC) — the benign replay case — and rejected
// loudly otherwise.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace emx::jobs {

/// One journal line, parsed. `fields` holds every member other than
/// seq/event/crc, as raw strings (numbers included), insertion-ordered.
/// `raw_fields` carries the same members JSON-encoded (strings keep
/// their quotes) so an entry can be re-emitted verbatim — what
/// compaction feeds back through format_line().
struct JournalEntry {
  std::uint64_t seq = 0;
  std::string event;
  std::vector<std::pair<std::string, std::string>> fields;
  std::vector<std::pair<std::string, std::string>> raw_fields;

  /// The named field, or "" when absent.
  std::string field(const std::string& key) const;
};

/// Formats one journal line (terminating newline included) from an
/// entry whose fields are already strings. String-typed values must be
/// pre-escaped by the caller if they can contain specials; job keys and
/// event names never do. `raw_fields` values are emitted verbatim, so
/// numbers stay numbers ("3") and strings carry their own quotes
/// ("\"sort-p4...\"").
std::string format_line(std::uint64_t seq, const std::string& event,
                        const std::vector<std::pair<std::string, std::string>>&
                            raw_fields);

class Journal {
 public:
  /// Opens `path` for appending (creating it if absent). Returns false
  /// with `err` when the directory refuses.
  bool open(const std::string& path, std::string& err);

  const std::string& path() const { return path_; }

  /// Appends one line and fsyncs before returning — the caller may act
  /// on the transition only after this returns true.
  bool append(const std::string& event,
              const std::vector<std::pair<std::string, std::string>>&
                  raw_fields,
              std::string& err);

  std::uint64_t next_seq() const { return next_seq_; }

  /// Loads a journal for replay. A torn final line is dropped (noted in
  /// `warning`); any other damage — interior CRC mismatch, non-monotone
  /// sequence numbers, malformed JSON body — fails with `err` naming
  /// the line and, when known, the job. A missing file loads as empty.
  static bool load(const std::string& path, std::vector<JournalEntry>& out,
                   std::string& warning, std::string& err);

  /// Rewrites `path` to hold exactly `keep`, re-sequenced from 0 and
  /// re-framed (each entry's raw_fields are re-emitted verbatim). The
  /// rewrite is atomic — a crash mid-compaction leaves either the old
  /// journal or the new one, never a blend — so the history a compacted
  /// journal drops is only ever the history its survivors make
  /// redundant. Call only once every job is terminal.
  static bool compact(const std::string& path,
                      const std::vector<JournalEntry>& keep, std::string& err);

 private:
  std::string path_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace emx::jobs
