#include "snapshot/progress.hpp"

#include <cstdio>

#include "common/serializer.hpp"

namespace emx::snapshot {

namespace {
constexpr const char kCrcMarker[] = ",\"crc\":\"";
}

std::string format_progress_line(const ProgressRecord& rec) {
  char body[128];
  std::snprintf(body, sizeof body,
                "{\"cycle\":%llu,\"live\":%llu,\"ckpts\":%llu,\"done\":%d",
                static_cast<unsigned long long>(rec.cycle),
                static_cast<unsigned long long>(rec.live_threads),
                static_cast<unsigned long long>(rec.checkpoints),
                rec.done ? 1 : 0);
  return std::string(body) + kCrcMarker +
         ser::crc_hex(ser::crc32(body, std::char_traits<char>::length(body))) +
         "\"}\n";
}

std::size_t parse_progress(std::string_view buf,
                           std::vector<ProgressRecord>& out,
                           std::string& err) {
  err.clear();
  std::size_t consumed = 0;
  while (consumed < buf.size()) {
    const std::size_t nl = buf.find('\n', consumed);
    if (nl == std::string_view::npos) break;  // torn tail: wait for more
    const std::string_view line = buf.substr(consumed, nl - consumed);

    const std::size_t marker = line.rfind(kCrcMarker);
    if (marker == std::string_view::npos) break;  // mid-write garbage tail
    const std::string_view body = line.substr(0, marker);
    const std::string_view tail =
        line.substr(marker + sizeof kCrcMarker - 1);
    if (tail != ser::crc_hex(ser::crc32(body.data(), body.size())) + "\"}")
      break;  // torn: CRC not intact

    ProgressRecord rec;
    unsigned long long cycle = 0, live = 0, ckpts = 0;
    int done = 0;
    if (std::sscanf(std::string(body).c_str(),
                    "{\"cycle\":%llu,\"live\":%llu,\"ckpts\":%llu,\"done\":%d",
                    &cycle, &live, &ckpts, &done) != 4) {
      // The CRC vouches for the bytes, so a parse failure means the
      // writer emitted nonsense — surface it, don't spin on the tail.
      err = "progress line has a valid crc but a malformed body";
      return consumed;
    }
    rec.cycle = cycle;
    rec.live_threads = live;
    rec.checkpoints = ckpts;
    rec.done = done != 0;
    out.push_back(rec);
    consumed = nl + 1;
  }
  return consumed;
}

}  // namespace emx::snapshot
