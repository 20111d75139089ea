#include "jobs/journal.hpp"

#include <sys/stat.h>
#include <unistd.h>

#include "common/fsio.hpp"
#include "common/json.hpp"
#include "common/serializer.hpp"

namespace emx::jobs {

namespace {

constexpr const char kCrcMarker[] = ",\"crc\":\"";

std::string value_to_field(const json::Value& v) {
  switch (v.kind()) {
    case json::Value::Kind::kString:
      return v.as_string();
    case json::Value::Kind::kBool:
      return v.as_bool() ? "true" : "false";
    default:
      return v.dump();
  }
}

/// Parses the journal `content`. `good_prefix` receives the byte length
/// of the longest valid whole-line prefix — what open() truncates a torn
/// file back to before appending.
bool parse_content(const std::string& path, const std::string& content,
                   std::vector<JournalEntry>& out, std::size_t& good_prefix,
                   std::string& warning, std::string& err) {
  out.clear();
  good_prefix = 0;
  warning.clear();
  err.clear();

  std::size_t pos = 0;
  std::uint64_t line_no = 0;
  std::uint64_t expect_seq = 0;
  while (pos < content.size()) {
    ++line_no;
    const std::size_t nl = content.find('\n', pos);
    const bool torn_no_newline = (nl == std::string::npos);
    const std::string line = content.substr(
        pos, torn_no_newline ? std::string::npos : nl - pos);
    const std::size_t line_end = torn_no_newline ? content.size() : nl + 1;
    const bool is_last = line_end >= content.size();

    const auto damaged = [&](const std::string& what) {
      if (is_last) {
        // The write a crash interrupted: drop it, redo the transition.
        warning = path + " line " + std::to_string(line_no) +
                  ": dropping torn final line (" + what + ")";
        return true;
      }
      // Best-effort cell attribution: the frame is broken, so scrape the
      // job key out of the raw bytes rather than trusting a parse.
      std::string cell;
      const std::size_t j = line.find("\"job\":\"");
      if (j != std::string::npos) {
        const std::size_t start = j + 7;
        const std::size_t end = line.find('"', start);
        if (end != std::string::npos)
          cell = " (cell " + line.substr(start, end - start) + ")";
      }
      err = path + " line " + std::to_string(line_no) + cell + ": " + what +
            " — journal is damaged before its final line; refusing to "
            "guess at sweep state";
      return false;
    };

    const std::size_t marker = line.rfind(kCrcMarker);
    if (torn_no_newline || marker == std::string::npos) {
      const bool ok = damaged(torn_no_newline ? "no terminating newline"
                                              : "no crc frame");
      if (!ok) return false;
      return true;  // torn tail dropped; good_prefix already excludes it
    }
    const std::string body = line.substr(0, marker);
    const std::string tail = line.substr(marker + sizeof kCrcMarker - 1);
    const std::string want = ser::crc_hex(ser::crc32(body.data(), body.size()));
    if (tail != want + "\"}") {
      if (!damaged("crc mismatch (line says \"" + tail.substr(0, 8) +
                   "\", bytes say \"" + want + "\")"))
        return false;
      return true;
    }

    std::string parse_err;
    const json::Value v = json::Value::parse(body + "}", parse_err);
    if (!parse_err.empty() || !v.is_object()) {
      // A valid CRC over an unparseable body means the writer was
      // broken, not the disk: always a hard error.
      err = path + " line " + std::to_string(line_no) +
            ": crc valid but body unparseable: " + parse_err;
      return false;
    }

    JournalEntry e;
    bool saw_seq = false;
    for (const auto& [key, val] : v.members()) {
      if (key == "seq") {
        e.seq = static_cast<std::uint64_t>(val.as_int(-1));
        saw_seq = val.is_int() && val.as_int() >= 0;
      } else if (key == "event") {
        e.event = val.as_string();
      } else {
        e.fields.emplace_back(key, value_to_field(val));
        e.raw_fields.emplace_back(key, val.dump());
      }
    }
    if (!saw_seq || e.event.empty()) {
      err = path + " line " + std::to_string(line_no) +
            ": missing seq or event";
      return false;
    }
    if (e.seq != expect_seq) {
      err = path + " line " + std::to_string(line_no) + ": seq " +
            std::to_string(e.seq) + " where " + std::to_string(expect_seq) +
            " expected — lines lost or reordered";
      return false;
    }
    ++expect_seq;
    out.push_back(std::move(e));
    good_prefix = line_end;
    pos = line_end;
  }
  return true;
}

}  // namespace

std::string JournalEntry::field(const std::string& key) const {
  for (const auto& [k, v] : fields)
    if (k == key) return v;
  return "";
}

std::string format_line(std::uint64_t seq, const std::string& event,
                        const std::vector<std::pair<std::string, std::string>>&
                            raw_fields) {
  std::string body = "{\"seq\":" + std::to_string(seq) + ",\"event\":\"" +
                     json::escape(event) + "\"";
  for (const auto& [key, value] : raw_fields)
    body += ",\"" + json::escape(key) + "\":" + value;
  return body + kCrcMarker +
         ser::crc_hex(ser::crc32(body.data(), body.size())) + "\"}\n";
}

bool Journal::open(const std::string& path, std::string& err) {
  std::string content;
  const bool exists = fsio::read_file(path, content);

  std::vector<JournalEntry> entries;
  std::size_t good_prefix = 0;
  std::string warning;
  // load() already reported a torn tail to the caller; open() cuts it.
  if (!parse_content(path, content, entries, good_prefix, warning, err))
    return false;

  if (exists && good_prefix != content.size()) {
    // Cut the torn tail so the next append starts on a line boundary.
    if (::truncate(path.c_str(), static_cast<off_t>(good_prefix)) != 0) {
      err = path + ": cannot truncate torn journal tail";
      return false;
    }
  }

  const std::string probe_err = fsio::probe_writable_file(path);
  if (!probe_err.empty()) {
    err = "journal " + probe_err;
    return false;
  }
  path_ = path;
  next_seq_ = entries.empty() ? 0 : entries.back().seq + 1;
  return true;
}

bool Journal::append(const std::string& event,
                     const std::vector<std::pair<std::string, std::string>>&
                         raw_fields,
                     std::string& err) {
  const std::string line = format_line(next_seq_, event, raw_fields);
  const std::string werr = fsio::append_line_fsync(path_, line);
  if (!werr.empty()) {
    err = "journal append: " + werr;
    return false;
  }
  ++next_seq_;
  return true;
}

bool Journal::load(const std::string& path, std::vector<JournalEntry>& out,
                   std::string& warning, std::string& err) {
  std::string content;
  fsio::read_file(path, content);  // a missing journal loads as empty
  std::size_t good_prefix = 0;
  return parse_content(path, content, out, good_prefix, warning, err);
}

bool Journal::compact(const std::string& path,
                      const std::vector<JournalEntry>& keep, std::string& err) {
  std::string content;
  std::uint64_t seq = 0;
  for (const JournalEntry& e : keep)
    content += format_line(seq++, e.event, e.raw_fields);
  const std::string werr = fsio::atomic_write_file(path, content);
  if (!werr.empty()) {
    err = "journal compact: " + werr;
    return false;
  }
  return true;
}

}  // namespace emx::jobs
