/// \file registry.hpp
/// The declarative scenario registry.
///
/// A scenario is a named, fully-assembled ExperimentConfig — app, driver,
/// queue count, workload shape, rate, windows, seed — the value type the
/// sweep runner (sweep.hpp) expands into parameter matrices and the
/// scenario-matrix bench runs. Registering a workload here is what makes
/// it sweepable, determinism-checked in CI, and addressable by name from
/// any bench.
///
/// The shipped registry covers the paper's staples (CBR, Poisson, IMIX,
/// the §V-F.4 unbalanced mix) plus the bursty/heavy-tail additions
/// (MMPP ON-OFF, Pareto flow trains, synchronized incast, pcap trace
/// replay) and the per-flow-source regime: thousands to millions of flows
/// with one arrival armed each, kept in the per-flow arena's own calendar
/// rather than the kernel's event store.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "apps/experiment.hpp"

namespace metro::scenario {

/// A named workload: the registry's value type.
struct ScenarioSpec {
  std::string name;     ///< unique registry key (CLI- and JSON-friendly)
  std::string summary;  ///< one-line description for listings
  /// The complete testbed configuration, with full (non---fast) windows.
  /// Sweeps override rate/windows/seed per shard; everything else is the
  /// scenario's identity.
  apps::ExperimentConfig config;
};

/// All registered scenarios, in registration order (stable across runs —
/// sweep shard indices and derived seeds depend on it).
const std::vector<ScenarioSpec>& all_scenarios();

/// Look up a scenario by name; nullptr when unknown.
const ScenarioSpec* find_scenario(std::string_view name);

/// The fig13 multiqueue testbed base (XL710, 2 Rx queues, 4 Metronome
/// threads, 15 us target vacation, 37 Mpps over 4096 flows, full
/// windows) — the one definition shared by the registered fig13
/// scenarios and the kernel bench's fig13 trajectory runs, so the
/// testbed cannot silently fork.
apps::ExperimentConfig fig13_testbed();

}  // namespace metro::scenario
