// The event store as a test parameter: suites whose every case must hold
// on both stores derive from StoreTest and instantiate with kStores.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>

#include "sim/simulation.hpp"

namespace metro::sim {

enum class Store { kHeap, kWheel };

/// A simulation on `store` (the default-geometry wheel for kWheel) whose
/// RNG is seeded with `seed`.
inline std::unique_ptr<Simulation> make_simulation(Store store, std::uint64_t seed = 1) {
  if (store == Store::kWheel) return std::make_unique<Simulation>(seed, TimingWheelBackend{});
  return std::make_unique<Simulation>(seed);
}

/// Both stores, named Heap and Wheel in the test ids.
inline const auto kStores = ::testing::Values(Store::kHeap, Store::kWheel);
inline std::string store_name(const ::testing::TestParamInfo<Store>& info) {
  return info.param == Store::kWheel ? "Wheel" : "Heap";
}

/// sim() is a fresh simulation (seed 1) on the parameter's store.
class StoreTest : public ::testing::TestWithParam<Store> {
 protected:
  Simulation& sim() { return *sim_; }

 private:
  std::unique_ptr<Simulation> sim_ = make_simulation(GetParam());
};

}  // namespace metro::sim
