#include "jobs/sweep.hpp"

#include <cstdio>

#include "common/json.hpp"
#include "common/serializer.hpp"
#include "jobs/aggregate.hpp"

namespace emx::jobs {

int run_sweep(const SweepOptions& opts, SweepOutcome& out, std::string& err) {
  std::vector<JobSpec> cells;
  if (!opts.spec.expand(cells, err)) return 2;
  std::vector<Submission> subs(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const json::Value run = run_object(cells[i].manifest);
    std::string perr;
    if (!parse_run(run, subs[i].job, perr) || subs[i].job.key != cells[i].key) {
      err = "cell " + cells[i].key + " has no run object that keys to it (" +
            (perr.empty() ? "it keys " + subs[i].job.key : perr) + ")";
      return 2;
    }
    subs[i].tenant = "sweep";
    subs[i].raw_run = run.dump();
  }

  Core core(opts);
  JournalEntry header;
  header.event = "sweep";
  header.raw_fields = {
      {"digest", json::quote(ser::crc_hex(opts.spec.digest()))},
      {"version", "2"}};
  if (!core.open(header, err)) return 2;

  std::vector<const JobRecord*> jobs;
  for (const Submission& sub : subs) {
    JobRecord* job = nullptr;
    if (!core.store().submit(sub, job, err)) return 2;
    jobs.push_back(job);
  }
  while (!core.idle()) {
    bool progressed = false;
    if (!core.step(progressed, err)) return 2;
    if (!progressed) core.clock().sleep_ms(5);
  }

  out = SweepOutcome{};
  for (const JobRecord* job : jobs) {
    CellOutcome oc;
    oc.key = job->key;
    oc.status = job->status;
    oc.result_bytes = job->result_bytes;
    // A cached cell ran no worker in this sweep.
    if (const Exec* e = job->status == "cached"
                            ? nullptr
                            : core.store().find_exec(job->key)) {
      oc.attempts = e->attempts;
      oc.resumes = e->resumes;
    }
    ++(job->state == JobRecord::State::kDone ? out.ok : out.failed);
    out.cells.push_back(std::move(oc));
  }
  out.aggregate_path = opts.out_dir + "/aggregate.json";
  out.provenance_path = opts.out_dir + "/provenance.json";
  if (!write_aggregate(out.aggregate_path, opts.spec, out.cells, err))
    return 2;
  if (!write_provenance(out.provenance_path, opts.spec, out.cells, err))
    return 2;

  // Every cell is terminal, so the attempt history is redundant. Failure
  // to compact is a warning: the journal is merely larger, never wrong.
  std::string compact_err;
  if (!core.store().compact(/*drop_cached_reruns=*/true, compact_err))
    std::fprintf(stderr, "emx_sweep: warning: %s\n", compact_err.c_str());
  return out.failed == 0 ? 0 : 1;
}

}  // namespace emx::jobs
