#include "apps/ferret.hpp"

namespace metro::apps {

namespace {

sim::Task ferret_task(sim::Simulation& sim, sim::Core& core, sim::Core::EntityId ent,
                      FerretConfig cfg, std::shared_ptr<FerretResult> result) {
  result->started = sim.now();
  if (cfg.total_work <= 0) {
    // Continuous contention: model as a spinning entity; never finishes.
    core.set_spinning(ent, true);
    co_return;
  }
  sim::Time remaining = cfg.total_work;
  while (remaining > 0) {
    const sim::Time chunk = remaining < cfg.chunk ? remaining : cfg.chunk;
    co_await core.run_for(ent, chunk);
    remaining -= chunk;
    ++result->chunks_done;
  }
  result->finished = sim.now();
}

}  // namespace

std::shared_ptr<FerretResult> spawn_ferret(sim::Simulation& sim, sim::Core& core,
                                           const FerretConfig& cfg, const std::string& name) {
  auto result = std::make_shared<FerretResult>();
  const auto ent = core.add_entity(name, cfg.nice);
  sim.spawn(ferret_task(sim, core, ent, cfg, result));
  return result;
}

}  // namespace metro::apps
