// The emx_serve wire protocol: newline-delimited JSON over a Unix
// socket.
//
// Every request is one JSON object on one line; every response is one
// JSON object on one line (except `watch`, which streams one line per
// progress record and ends with an "end" event). Keeping the framing
// this dumb is deliberate: the daemon's durability story already rests
// on line-oriented JSON (the journal), `nc`/scripts can speak it, and
// a torn request is just an unparseable line answered with an error.
//
// Requests:
//
//   {"op":"submit","tenant":"t","priority":0..9,"run":{...}}
//   {"op":"status","id":"j3"}
//   {"op":"list"}
//   {"op":"cancel","id":"j3"}
//   {"op":"watch","id":"j3"}
//   {"op":"drain"}
//
// The "run" object names the workload and its coordinates (`app`,
// `procs`, `threads`, `size_per_proc`, `seed`) plus any manifest knob
// from the sweep-spec "base" vocabulary (network, barrier, watchdog,
// fault plan, ... — see docs/JOBS.md). It is expanded by jobs::parse_run,
// the same function emx_sweep checks its cells against, so a submitted
// run gets the same manifest-CRC key as the equivalent sweep cell — which
// is exactly what makes daemon results and sweep results dedupe against
// each other.
#pragma once

#include <string>

#include "common/json.hpp"
#include "jobs/job_store.hpp"

namespace emx::serve {

using jobs::kMaxPriority;
using jobs::kMinPriority;

/// One request; a submit fills the inherited jobs::Submission.
struct Request : jobs::Submission {
  enum class Op { kSubmit, kStatus, kList, kCancel, kWatch, kDrain };
  Op op = Op::kList;
  std::string id;  ///< status / cancel / watch
};

/// Parses one request line. Returns false with a client-facing `err`.
bool parse_request(const std::string& line, Request& out, std::string& err);

/// {"ok":false,"error":"..."} plus newline.
std::string error_line(const std::string& msg);

/// `v` dumped onto one line plus newline.
std::string response_line(const json::Value& v);

}  // namespace emx::serve
