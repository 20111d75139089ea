#include "workloads/histsort.hpp"

#include <algorithm>

#include "apps/distribution.hpp"
#include "common/rng.hpp"
#include "core/instrumentation.hpp"
#include "runtime/barrier.hpp"
#include "workloads/registry.hpp"

namespace emx::workloads {

namespace {
constexpr LocalAddr kKeysBase = rt::kReservedWords;

Cycle sort_charge(Cycle per_comparison, std::uint64_t count) {
  // n log2(n) comparisons, log rounded up; zero for empty buckets.
  std::uint64_t lg = 0;
  while ((1ull << lg) < count) ++lg;
  return per_comparison * count * lg;
}
}  // namespace

HistsortApp::HistsortApp(Machine& machine, HistsortParams params)
    : machine_(machine), params_(params) {
  EMX_CHECK(params_.threads >= 1, "need at least one thread per PE");
  const std::uint32_t P = machine_.config().proc_count;
  EMX_CHECK(params_.n % P == 0, "blocked distribution requires P | n");
  state_.resize(P);
  worker_entry_ = machine_.register_entry(
      [this](rt::ThreadApi api, Word arg) -> rt::ThreadBody {
        return histsort_worker(this, api, arg);
      });
  append_entry_ = machine_.register_entry(
      [this](rt::ThreadApi api, Word arg) -> rt::ThreadBody {
        return histsort_append(this, api, arg);
      });
}

std::uint64_t HistsortApp::per_proc_keys() const {
  return params_.n / machine_.config().proc_count;
}

ProcId HistsortApp::bucket_owner(Word key) const {
  const std::uint64_t P = machine_.config().proc_count;
  return static_cast<ProcId>(static_cast<std::uint64_t>(key) * P /
                             kHistsortKeyRange);
}

LocalAddr HistsortApp::key_addr(std::uint64_t k) const {
  return kKeysBase + static_cast<LocalAddr>(k);
}

LocalAddr HistsortApp::bucket_addr(std::uint64_t slot) const {
  return kKeysBase + static_cast<LocalAddr>(per_proc_keys() + slot);
}

void HistsortApp::setup() {
  EMX_CHECK(!setup_done_, "setup() called twice");
  setup_done_ = true;
  const std::uint32_t P = machine_.config().proc_count;
  const std::uint64_t m = per_proc_keys();

  Rng& rng = machine_.streams().stream("workload.histsort", params_.seed);
  keys_.resize(params_.n);
  for (auto& key : keys_) {
    key = static_cast<Word>(rng.bounded(kHistsortKeyRange));
  }
  // The generator knows every key, so each PE's exact bucket size is
  // known up front — the bucket region is sized to it, not to a worst
  // case, and overfill is a hard error instead of a corruption.
  for (const Word key : keys_) ++state_[bucket_owner(key)].expected;
  for (ProcId p = 0; p < P; ++p) {
    EMX_CHECK(kKeysBase + m + state_[p].expected <=
                  machine_.config().memory_words,
              "histsort bucket does not fit in per-PE memory");
  }

  for (ProcId p = 0; p < P; ++p) {
    auto& mem = machine_.memory(p);
    for (std::uint64_t k = 0; k < m; ++k) {
      mem.write(key_addr(k), keys_[static_cast<std::uint64_t>(p) * m + k]);
    }
  }

  machine_.configure_barrier(params_.threads);
  for (ProcId p = 0; p < P; ++p) {
    for (std::uint32_t t = 0; t < params_.threads; ++t) {
      machine_.spawn(p, worker_entry_, t);
    }
  }
}

void HistsortApp::append(proc::Memory& mem, ProcId owner, Word key) {
  auto& st = state_[owner];
  EMX_DCHECK(st.fill < st.expected, "histsort bucket overfill");
  mem.write(bucket_addr(st.fill), key);
  ++st.fill;
}

rt::ThreadBody histsort_worker(HistsortApp* app, rt::ThreadApi api,
                               Word thread_index) {
  const auto t = static_cast<std::uint32_t>(thread_index);
  const std::uint32_t h = app->params_.threads;
  const ProcId me = api.proc();
  const std::uint64_t m = app->per_proc_keys();
  const apps::ThreadChunk chunk = apps::thread_chunk(m, h, t);
  auto& mem = api.memory();

  // --- scatter: append every key to its bucket owner, fire-and-forget ---
  for (std::uint64_t k = chunk.lo; k < chunk.hi; ++k) {
    co_await api.compute(app->params_.scan_cycles);
    const Word key = mem.read(app->key_addr(k));
    const ProcId owner = app->bucket_owner(key);
    if (owner == me) {
      co_await api.compute(app->params_.append_cycles);
      app->append(mem, me, key);
      ++app->local_appends_;
    } else {
      ++app->inflight_;
      ++app->remote_appends_;
      co_await api.spawn(owner, app->append_entry_, key);
    }
  }

  // --- exchange completion: barrier, drain in-flight appends, barrier ---
  co_await api.iteration_barrier();
  if (me == 0 && t == 0) {
    while (app->inflight_ != 0) co_await api.yield();
  }
  co_await api.iteration_barrier();

  // --- local sort of the complete bucket (one thread per PE) ---
  if (t == 0) {
    const std::uint64_t count = app->state_[me].fill;
    if (count > 1) {
      std::vector<Word> bucket(count);
      for (std::uint64_t i = 0; i < count; ++i) {
        bucket[i] = mem.read(app->bucket_addr(i));
      }
      std::sort(bucket.begin(), bucket.end());
      for (std::uint64_t i = 0; i < count; ++i) {
        mem.write(app->bucket_addr(i), bucket[i]);
      }
      co_await api.compute(sort_charge(app->params_.sort_cycles, count));
    }
  }
  co_return;
}

rt::ThreadBody histsort_append(HistsortApp* app, rt::ThreadApi api,
                               Word key) {
  co_await api.compute(app->params_.append_cycles);
  app->append(api.memory(), api.proc(), key);
  --app->inflight_;
  co_return;
}

std::vector<Word> HistsortApp::gather_sorted() const {
  const std::uint32_t P = machine_.config().proc_count;
  std::vector<Word> out;
  out.reserve(params_.n);
  auto& machine = const_cast<Machine&>(machine_);
  for (ProcId p = 0; p < P; ++p) {
    auto& mem = machine.memory(p);
    for (std::uint64_t i = 0; i < state_[p].fill; ++i) {
      out.push_back(mem.read(bucket_addr(i)));
    }
  }
  return out;
}

std::vector<Word> HistsortApp::host_reference() const {
  std::vector<Word> sorted = keys_;
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

bool HistsortApp::verify() const {
  return gather_sorted() == host_reference();
}

void HistsortApp::contribute(MachineReport& report) const {
  std::uint64_t lo = ~0ull;
  std::uint64_t hi = 0;
  for (const auto& st : state_) {
    lo = std::min(lo, st.expected);
    hi = std::max(hi, st.expected);
  }
  report.app_metrics.push_back(
      {"histsort.local_appends", std::to_string(local_appends_)});
  report.app_metrics.push_back(
      {"histsort.remote_appends", std::to_string(remote_appends_)});
  report.app_metrics.push_back({"histsort.min_bucket", std::to_string(lo)});
  report.app_metrics.push_back({"histsort.max_bucket", std::to_string(hi)});
}

void register_histsort_workload(Registry& registry) {
  Spec spec;
  spec.name = "histsort";
  spec.description =
      "async-BSP bucketed integer sort with one-sided remote bucket "
      "appends";
  spec.default_size_per_proc = 512;
  spec.default_threads = 4;
  spec.metrics_component = "sim";
  spec.build = [](Machine& machine, const Params& params)
      -> std::unique_ptr<Workload> {
    HistsortParams hp;
    hp.n = params.size_per_proc * machine.config().proc_count;
    hp.threads = params.threads;
    hp.seed = params.seed;
    auto app = std::make_unique<HistsortApp>(machine, hp);
    app->setup();
    return app;
  };
  registry.add(std::move(spec));
}

}  // namespace emx::workloads
