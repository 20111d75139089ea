// Wire-protocol parsing: validation is loud and client-facing, and a
// submitted run keys identically to the equivalent emx_run invocation
// (flag-parity defaults) — the property the whole dedup story rests on.
#include "serve/protocol.hpp"

#include <string>

#include <gtest/gtest.h>

namespace emx::serve {
namespace {

Request parse_ok(const std::string& line) {
  Request req;
  std::string err;
  EXPECT_TRUE(parse_request(line, req, err)) << err;
  return req;
}

std::string parse_err(const std::string& line) {
  Request req;
  std::string err;
  EXPECT_FALSE(parse_request(line, req, err));
  return err;
}

TEST(ProtocolTest, SubmitParsesCoordinatesAndDefaults) {
  const Request req = parse_ok(
      R"({"op":"submit","tenant":"alice","priority":7,)"
      R"("run":{"app":"sort","procs":4,"threads":2,"size_per_proc":64}})");
  EXPECT_EQ(req.op, Request::Op::kSubmit);
  EXPECT_EQ(req.tenant, "alice");
  EXPECT_EQ(req.priority, 7);
  EXPECT_EQ(req.job.manifest.app, "sort");
  EXPECT_EQ(req.job.manifest.config.proc_count, 4u);
  EXPECT_EQ(req.job.manifest.threads, 2u);
  EXPECT_EQ(req.job.manifest.size_per_proc, 64u);
  // Registry defaults and the manifest key came through expansion.
  EXPECT_FALSE(req.job.key.empty());
  EXPECT_EQ(req.job.key.rfind("sort-p4-n64-h2-s1-", 0), 0u) << req.job.key;

  // Tenant and priority default when absent.
  const Request bare =
      parse_ok(R"({"op":"submit","run":{"app":"sort"}})");
  EXPECT_EQ(bare.tenant, "default");
  EXPECT_EQ(bare.priority, kMinPriority);
}

TEST(ProtocolTest, RunKeysMatchEmxRunFlagParity) {
  // The parity defaults (iterations=8, seed=1) must be baked in, so an
  // explicit "iterations":8 is the *same* recipe, not a new key.
  const Request implicit =
      parse_ok(R"({"op":"submit","run":{"app":"sort","procs":4,)"
               R"("threads":2,"size_per_proc":64}})");
  const Request explicit_it =
      parse_ok(R"({"op":"submit","run":{"app":"sort","procs":4,)"
               R"("threads":2,"size_per_proc":64,"iterations":8}})");
  EXPECT_EQ(implicit.job.key, explicit_it.job.key);
  EXPECT_EQ(implicit.job.manifest.iterations, 8u);

  // A different knob value is a different key.
  const Request other =
      parse_ok(R"({"op":"submit","run":{"app":"sort","procs":4,)"
               R"("threads":2,"size_per_proc":64,"iterations":4}})");
  EXPECT_NE(other.job.key, implicit.job.key);
}

TEST(ProtocolTest, SubmitValidationIsLoud) {
  EXPECT_NE(parse_err(R"({"op":"submit"})").find("\"run\""),
            std::string::npos);
  EXPECT_NE(parse_err(R"({"op":"submit","run":{}})").find("run.app"),
            std::string::npos);
  EXPECT_NE(parse_err(R"({"op":"submit","run":{"app":"bogus"}})")
                .find("unknown app"),
            std::string::npos);
  EXPECT_NE(parse_err(R"({"op":"submit","priority":11,)"
                      R"("run":{"app":"sort"}})")
                .find("priority"),
            std::string::npos);
  EXPECT_NE(parse_err(R"({"op":"submit","tenant":"",)"
                      R"("run":{"app":"sort"}})")
                .find("tenant"),
            std::string::npos);
  EXPECT_NE(parse_err(R"({"op":"submit","run":{"app":"sort",)"
                      R"("procs":-1}})")
                .find("run.procs"),
            std::string::npos);
  // Knob errors speak the protocol's vocabulary ("run"), not the
  // sweep-spec's internal "base" one.
  const std::string unknown = parse_err(
      R"({"op":"submit","run":{"app":"sort","bogus_knob":1}})");
  EXPECT_NE(unknown.find("unknown run knob 'bogus_knob'"),
            std::string::npos)
      << unknown;
  const std::string badval = parse_err(
      R"({"op":"submit","run":{"app":"sort","block-reads":3}})");
  EXPECT_NE(badval.find("run.block-reads"), std::string::npos) << badval;
  EXPECT_EQ(badval.find("base"), std::string::npos) << badval;
}

TEST(ProtocolTest, SubmitsNoWorkerCouldRunAreAnsweredWithAnError) {
  const char* runs[][2] = {
      {R"("poll-interval":0)", "poll-interval"},
      {R"("fault-drop-rate":0.6,"fault-dup-rate":0.6)", "sum"},
      {R"("procs":6,"network":"detailed")", "power-of-two"},
      {R"("threads":0)", "run.threads"},
      {R"("network":"detaild")", "\"detailed\" or \"fast\""},
  };
  for (const auto& [run, named] : runs) {
    const std::string err =
        parse_err(std::string(R"({"op":"submit","run":{"app":"sort",)") +
                  run + "}}");
    EXPECT_NE(err.find(named), std::string::npos) << run << ": " << err;
  }
}

TEST(ProtocolTest, OtherOpsAndFraming) {
  EXPECT_EQ(parse_ok(R"({"op":"status","id":"j3"})").op,
            Request::Op::kStatus);
  EXPECT_EQ(parse_ok(R"({"op":"status","id":"j3"})").id, "j3");
  EXPECT_EQ(parse_ok(R"({"op":"cancel","id":"j1"})").op,
            Request::Op::kCancel);
  EXPECT_EQ(parse_ok(R"({"op":"watch","id":"j1"})").op, Request::Op::kWatch);
  EXPECT_EQ(parse_ok(R"({"op":"list"})").op, Request::Op::kList);
  EXPECT_EQ(parse_ok(R"({"op":"drain"})").op, Request::Op::kDrain);

  EXPECT_NE(parse_err(R"({"op":"status"})").find("\"id\""),
            std::string::npos);
  EXPECT_NE(parse_err(R"({"op":"frobnicate"})").find("unknown op"),
            std::string::npos);
  EXPECT_NE(parse_err("not json").find("JSON"), std::string::npos);

  EXPECT_EQ(error_line("boom"), "{\"ok\":false,\"error\":\"boom\"}\n");
}

}  // namespace
}  // namespace emx::serve
