#include "workloads/bfs.hpp"

#include <algorithm>
#include <deque>

#include "apps/distribution.hpp"
#include "common/rng.hpp"
#include "core/instrumentation.hpp"
#include "runtime/barrier.hpp"
#include "workloads/registry.hpp"

namespace emx::workloads {

namespace {
constexpr LocalAddr kAdjBase = rt::kReservedWords;
}  // namespace

BfsApp::BfsApp(Machine& machine, BfsParams params)
    : machine_(machine), params_(params) {
  EMX_CHECK(params_.threads >= 1, "need at least one thread per PE");
  EMX_CHECK(params_.degree >= 1, "need at least one edge per vertex");
  const std::uint32_t P = machine_.config().proc_count;
  EMX_CHECK(params_.n % P == 0, "blocked distribution requires P | n");
  EMX_CHECK(params_.root < params_.n, "root vertex out of range");
  const std::uint64_t m = per_proc_vertices();
  // Layout: adjacency rows, then dist, then the two frontier buffers.
  // Each vertex enters a frontier at most once, so capacity m suffices.
  const std::uint64_t words = m * params_.degree + 3 * m;
  EMX_CHECK(kAdjBase + words <= machine_.config().memory_words,
            "bfs graph block does not fit in per-PE memory");
  state_.resize(P);
  worker_entry_ = machine_.register_entry(
      [this](rt::ThreadApi api, Word arg) -> rt::ThreadBody {
        return bfs_worker(this, api, arg);
      });
  visit_entry_ = machine_.register_entry(
      [this](rt::ThreadApi api, Word arg) -> rt::ThreadBody {
        return bfs_visit(this, api, arg);
      });
}

std::uint64_t BfsApp::per_proc_vertices() const {
  return params_.n / machine_.config().proc_count;
}

LocalAddr BfsApp::adj_addr(Word u_local, std::uint32_t edge) const {
  return kAdjBase +
         static_cast<LocalAddr>(static_cast<std::uint64_t>(u_local) *
                                    params_.degree +
                                edge);
}

LocalAddr BfsApp::dist_addr(Word v_local) const {
  const std::uint64_t m = per_proc_vertices();
  return kAdjBase + static_cast<LocalAddr>(m * params_.degree + v_local);
}

LocalAddr BfsApp::frontier_addr(std::uint32_t parity,
                                std::uint64_t slot) const {
  const std::uint64_t m = per_proc_vertices();
  return kAdjBase +
         static_cast<LocalAddr>(m * params_.degree + m + parity * m + slot);
}

void BfsApp::setup() {
  EMX_CHECK(!setup_done_, "setup() called twice");
  setup_done_ = true;
  const std::uint32_t P = machine_.config().proc_count;
  const std::uint64_t m = per_proc_vertices();

  // Uniform-degree digraph: every vertex gets `degree` random targets
  // (self-loops and parallel edges allowed — they only add visit checks).
  Rng& rng = machine_.streams().stream("workload.bfs", params_.seed);
  adjacency_.resize(params_.n * params_.degree);
  for (auto& target : adjacency_) {
    target = static_cast<Word>(rng.bounded(params_.n));
  }

  const apps::BlockDist dist(params_.n, P);
  for (ProcId p = 0; p < P; ++p) {
    auto& mem = machine_.memory(p);
    for (std::uint64_t k = 0; k < m; ++k) {
      const std::uint64_t u = dist.global_index(p, k);
      for (std::uint32_t e = 0; e < params_.degree; ++e) {
        mem.write(adj_addr(static_cast<Word>(k), e),
                  adjacency_[u * params_.degree + e]);
      }
      mem.write(dist_addr(static_cast<Word>(k)), kBfsUnreached);
    }
  }

  const ProcId root_owner = dist.owner(params_.root);
  const Word root_local = static_cast<Word>(dist.local_index(params_.root));
  machine_.memory(root_owner).write(dist_addr(root_local), 0);
  machine_.memory(root_owner).write(frontier_addr(0, 0), root_local);
  state_[root_owner].cur = 1;
  peak_frontier_ = 1;

  machine_.configure_barrier(params_.threads);
  for (ProcId p = 0; p < P; ++p) {
    for (std::uint32_t t = 0; t < params_.threads; ++t) {
      machine_.spawn(p, worker_entry_, t);
    }
  }
}

bool BfsApp::visit(proc::Memory& mem, ProcId owner, Word v_local) {
  if (mem.read(dist_addr(v_local)) != kBfsUnreached) return false;
  mem.write(dist_addr(v_local), level_ + 1);
  auto& st = state_[owner];
  mem.write(frontier_addr(parity_ ^ 1u, st.next), v_local);
  ++st.next;
  ++reached_;
  return true;
}

rt::ThreadBody bfs_worker(BfsApp* app, rt::ThreadApi api, Word thread_index) {
  const auto t = static_cast<std::uint32_t>(thread_index);
  const std::uint32_t h = app->params_.threads;
  const ProcId me = api.proc();
  const std::uint64_t m = app->per_proc_vertices();
  const std::uint32_t degree = app->params_.degree;
  auto& mem = api.memory();

  for (;;) {
    // --- scan this PE's slice of the current frontier ---
    const std::uint64_t count = app->state_[me].cur;
    const std::uint32_t parity = app->parity_;
    const apps::ThreadChunk chunk = apps::thread_chunk(count, h, t);
    for (std::uint64_t slot = chunk.lo; slot < chunk.hi; ++slot) {
      co_await api.overhead(app->params_.frontier_cycles);
      const Word u_local = mem.read(app->frontier_addr(parity, slot));
      app->edges_scanned_ += degree;
      for (std::uint32_t e = 0; e < degree; ++e) {
        co_await api.compute(app->params_.scan_cycles);
        const Word v = mem.read(app->adj_addr(u_local, e));
        const auto owner = static_cast<ProcId>(v / m);
        const auto v_local = static_cast<Word>(v % m);
        if (owner == me) {
          co_await api.compute(app->params_.visit_cycles);
          if (app->visit(mem, me, v_local)) {
            co_await api.compute(app->params_.update_cycles);
          }
        } else {
          // One-sided remote visit: the spawned thread runs the
          // check/update on the owner's EXU. Count it in flight until it
          // retires so the drain below can prove the level is complete.
          ++app->inflight_;
          ++app->remote_visits_;
          co_await api.spawn(owner, app->visit_entry_, v_local);
        }
      }
    }

    // --- level synchronisation: barrier, drain, barrier, publish ---
    co_await api.iteration_barrier();
    if (me == 0 && t == 0) {
      // Invoke packets may still be in the network (retransmit timers
      // under --fault-*); one designated thread polls them down to zero.
      while (app->inflight_ != 0) co_await api.yield();
    }
    co_await api.iteration_barrier();
    if (t == 0) {
      auto& st = app->state_[me];
      st.cur = st.next;
      st.next = 0;
    }
    if (me == 0 && t == 0) {
      app->parity_ ^= 1u;
      ++app->level_;
    }
    co_await api.iteration_barrier();

    std::uint64_t total = 0;
    for (const auto& st : app->state_) total += st.cur;
    if (me == 0 && t == 0) {
      app->peak_frontier_ = std::max(app->peak_frontier_, total);
    }
    if (total == 0) break;
  }
  co_return;
}

rt::ThreadBody bfs_visit(BfsApp* app, rt::ThreadApi api, Word v_local) {
  co_await api.compute(app->params_.visit_cycles);
  // Check + update + append with no suspension in between: the visit is
  // atomic on this PE, so two visits of the same vertex cannot both
  // append it (frontier capacity relies on at most one append each).
  const bool discovered = app->visit(api.memory(), api.proc(), v_local);
  if (discovered) {
    co_await api.compute(app->params_.update_cycles);
  }
  --app->inflight_;
  co_return;
}

std::vector<Word> BfsApp::gather_dist() const {
  const std::uint32_t P = machine_.config().proc_count;
  const std::uint64_t m = per_proc_vertices();
  std::vector<Word> out;
  out.reserve(params_.n);
  auto& machine = const_cast<Machine&>(machine_);
  for (ProcId p = 0; p < P; ++p) {
    auto& mem = machine.memory(p);
    for (std::uint64_t k = 0; k < m; ++k) {
      out.push_back(mem.read(dist_addr(static_cast<Word>(k))));
    }
  }
  return out;
}

std::vector<Word> BfsApp::host_reference() const {
  std::vector<Word> dist(params_.n, kBfsUnreached);
  std::deque<Word> queue;
  dist[params_.root] = 0;
  queue.push_back(params_.root);
  while (!queue.empty()) {
    const Word u = queue.front();
    queue.pop_front();
    for (std::uint32_t e = 0; e < params_.degree; ++e) {
      const Word v = adjacency_[static_cast<std::uint64_t>(u) *
                                    params_.degree +
                                e];
      if (dist[v] == kBfsUnreached) {
        dist[v] = dist[u] + 1;
        queue.push_back(v);
      }
    }
  }
  return dist;
}

bool BfsApp::verify() const { return gather_dist() == host_reference(); }

void BfsApp::contribute(MachineReport& report) const {
  report.app_metrics.push_back({"bfs.levels", std::to_string(level_)});
  report.app_metrics.push_back({"bfs.reached", std::to_string(reached_)});
  report.app_metrics.push_back(
      {"bfs.edges_scanned", std::to_string(edges_scanned_)});
  report.app_metrics.push_back(
      {"bfs.remote_visits", std::to_string(remote_visits_)});
  report.app_metrics.push_back(
      {"bfs.peak_frontier", std::to_string(peak_frontier_)});
}

void register_bfs_workload(Registry& registry) {
  Spec spec;
  spec.name = "bfs";
  spec.description =
      "level-synchronous BFS over a seeded uniform-degree graph "
      "(one-sided remote visits)";
  spec.default_size_per_proc = 512;
  spec.default_threads = 4;
  spec.metrics_component = "sim";
  spec.build = [](Machine& machine, const Params& params)
      -> std::unique_ptr<Workload> {
    BfsParams bp;
    bp.n = params.size_per_proc * machine.config().proc_count;
    bp.threads = params.threads;
    bp.seed = params.seed;
    auto app = std::make_unique<BfsApp>(machine, bp);
    app->setup();
    return app;
  };
  registry.add(std::move(spec));
}

}  // namespace emx::workloads
