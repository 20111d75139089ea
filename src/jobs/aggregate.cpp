#include "jobs/aggregate.hpp"

#include "common/fsio.hpp"
#include "common/json.hpp"
#include "common/serializer.hpp"

namespace emx::jobs {

namespace {

json::Value header(const SweepSpec& spec) {
  json::Value v = json::Value::object();
  v.set("schema", json::Value::integer(1));
  v.set("sweep", json::Value::string(spec.name));
  v.set("spec_digest", json::Value::string(ser::crc_hex(spec.digest())));
  return v;
}

bool publish(const std::string& path, const json::Value& v,
             std::string& err) {
  const std::string werr = fsio::atomic_write_file(path, v.dump(2) + "\n");
  if (!werr.empty()) {
    err = werr;
    return false;
  }
  return true;
}

}  // namespace

bool write_aggregate(const std::string& path, const SweepSpec& spec,
                     const std::vector<CellOutcome>& cells,
                     std::string& err) {
  json::Value root = header(spec);
  json::Value& list = root.set("cells", json::Value::array());
  for (const CellOutcome& cell : cells) {
    json::Value c = json::Value::object();
    c.set("key", json::Value::string(cell.key));
    const bool failed = cell.result_bytes.empty();
    // Deterministic verdict only: "cached"/"resumed:k" are scheduling
    // accidents and belong to the provenance file.
    c.set("status",
          json::Value::string(failed ? cell.status : std::string("ok")));
    if (failed) {
      c.set("result", json::Value());
    } else {
      std::string perr;
      json::Value result = json::Value::parse(cell.result_bytes, perr);
      if (!perr.empty()) {
        err = "cell " + cell.key + ": blessed result unparseable: " + perr;
        return false;
      }
      c.set("result", std::move(result));
    }
    list.push(std::move(c));
  }
  return publish(path, root, err);
}

bool write_provenance(const std::string& path, const SweepSpec& spec,
                      const std::vector<CellOutcome>& cells,
                      std::string& err) {
  json::Value root = header(spec);
  json::Value& list = root.set("cells", json::Value::array());
  for (const CellOutcome& cell : cells) {
    json::Value c = json::Value::object();
    c.set("key", json::Value::string(cell.key));
    c.set("status", json::Value::string(cell.status));
    c.set("attempts", json::Value::integer(cell.attempts));
    c.set("resumes", json::Value::integer(cell.resumes));
    list.push(std::move(c));
  }
  return publish(path, root, err);
}

}  // namespace emx::jobs
