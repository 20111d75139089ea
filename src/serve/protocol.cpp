#include "serve/protocol.hpp"

namespace emx::serve {

bool parse_request(const std::string& line, Request& out, std::string& err) {
  std::string perr;
  const json::Value v = json::Value::parse(line, perr);
  if (!perr.empty() || !v.is_object()) {
    err = "request is not a JSON object" +
          (perr.empty() ? "" : " (" + perr + ")");
    return false;
  }
  const json::Value* op = v.find("op");
  if (op == nullptr || !op->is_string()) {
    err = "request needs a string \"op\"";
    return false;
  }
  Request req;
  const std::string& name = op->as_string();
  if (name == "submit") {
    req.op = Request::Op::kSubmit;
    if (const json::Value* t = v.find("tenant"); t != nullptr) {
      if (!t->is_string() || t->as_string().empty()) {
        err = "tenant must be a non-empty string";
        return false;
      }
      req.tenant = t->as_string();
    }
    if (const json::Value* p = v.find("priority"); p != nullptr) {
      if (!p->is_int() || p->as_int() < kMinPriority ||
          p->as_int() > kMaxPriority) {
        err = "priority must be an integer in [" +
              std::to_string(kMinPriority) + ", " +
              std::to_string(kMaxPriority) + "]";
        return false;
      }
      req.priority = static_cast<int>(p->as_int());
    }
    const json::Value* run = v.find("run");
    if (run == nullptr) {
      err = "submit needs a \"run\" object";
      return false;
    }
    if (!jobs::parse_run(*run, req.job, err)) return false;
    req.raw_run = run->dump();
  } else if (name == "status" || name == "cancel" || name == "watch") {
    req.op = name == "status"   ? Request::Op::kStatus
             : name == "cancel" ? Request::Op::kCancel
                                : Request::Op::kWatch;
    const json::Value* id = v.find("id");
    if (id == nullptr || !id->is_string() || id->as_string().empty()) {
      err = name + " needs a string \"id\"";
      return false;
    }
    req.id = id->as_string();
  } else if (name == "list") {
    req.op = Request::Op::kList;
  } else if (name == "drain") {
    req.op = Request::Op::kDrain;
  } else {
    err = "unknown op '" + name +
          "' (want submit, status, list, cancel, watch, drain)";
    return false;
  }
  out = std::move(req);
  return true;
}

std::string error_line(const std::string& msg) {
  json::Value v = json::Value::object();
  v.set("ok", json::Value::boolean(false));
  v.set("error", json::Value::string(msg));
  return v.dump() + "\n";
}

std::string response_line(const json::Value& v) { return v.dump() + "\n"; }

}  // namespace emx::serve
