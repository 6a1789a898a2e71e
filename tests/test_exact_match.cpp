// Cuckoo exact-match table: semantics and load behaviour.
#include <gtest/gtest.h>

#include <unordered_map>

#include "net/exact_match.hpp"
#include "net/flow.hpp"
#include "sim/rng.hpp"

namespace metro::net {
namespace {

struct TupleHasher {
  std::uint64_t operator()(const FiveTuple& t) const { return flow_hash(t); }
};
using Table = CuckooTable<FiveTuple, int, TupleHasher>;

FiveTuple tuple_of(std::uint32_t i) {
  return FiveTuple{i, ~i, static_cast<std::uint16_t>(i * 7), static_cast<std::uint16_t>(i * 13),
                   17};
}

TEST(CuckooTest, InsertAndFind) {
  Table t(64);
  EXPECT_TRUE(t.insert(tuple_of(1), 100));
  EXPECT_TRUE(t.insert(tuple_of(2), 200));
  EXPECT_EQ(t.find(tuple_of(1)).value(), 100);
  EXPECT_EQ(t.find(tuple_of(2)).value(), 200);
  EXPECT_FALSE(t.find(tuple_of(3)).has_value());
  EXPECT_EQ(t.size(), 2u);
}

TEST(CuckooTest, InsertUpdatesExistingKey) {
  Table t(64);
  EXPECT_TRUE(t.insert(tuple_of(1), 1));
  EXPECT_TRUE(t.insert(tuple_of(1), 2));
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.find(tuple_of(1)).value(), 2);
}

TEST(CuckooTest, EraseRemoves) {
  Table t(64);
  t.insert(tuple_of(5), 50);
  EXPECT_TRUE(t.erase(tuple_of(5)));
  EXPECT_FALSE(t.find(tuple_of(5)).has_value());
  EXPECT_FALSE(t.erase(tuple_of(5)));
  EXPECT_EQ(t.size(), 0u);
}

TEST(CuckooTest, FindMutAllowsInPlaceUpdate) {
  Table t(64);
  t.insert(tuple_of(9), 1);
  int* v = t.find_mut(tuple_of(9));
  ASSERT_NE(v, nullptr);
  *v = 42;
  EXPECT_EQ(t.find(tuple_of(9)).value(), 42);
  EXPECT_EQ(t.find_mut(tuple_of(777)), nullptr);
}

TEST(CuckooTest, SurvivesHighLoadWithDisplacements) {
  // Fill to ~90% of the allocated slot count; displacements must keep all
  // earlier entries reachable.
  Table t(1000);
  const auto target = static_cast<std::uint32_t>(t.capacity() * 9 / 10);
  std::uint32_t inserted = 0;
  for (std::uint32_t i = 0; i < target; ++i) {
    if (!t.insert(tuple_of(i), static_cast<int>(i))) break;
    ++inserted;
  }
  EXPECT_GT(inserted, target * 8 / 10);
  for (std::uint32_t i = 0; i < inserted; ++i) {
    const auto v = t.find(tuple_of(i));
    ASSERT_TRUE(v.has_value()) << "lost key " << i << " of " << inserted;
    ASSERT_EQ(*v, static_cast<int>(i));
  }
}

TEST(CuckooTest, MatchesReferenceMapUnderChurn) {
  sim::Rng rng(77);
  Table t(512);
  std::unordered_map<FiveTuple, int> ref;
  for (int op = 0; op < 20000; ++op) {
    const auto key = tuple_of(static_cast<std::uint32_t>(rng.uniform_u64(300)));
    const int action = static_cast<int>(rng.uniform_u64(3));
    if (action == 0) {
      const int v = static_cast<int>(rng.uniform_u64(1 << 20));
      if (t.insert(key, v)) ref[key] = v;
    } else if (action == 1) {
      const bool a = t.erase(key);
      const bool b = ref.erase(key) > 0;
      ASSERT_EQ(a, b);
    } else {
      const auto got = t.find(key);
      const auto it = ref.find(key);
      ASSERT_EQ(got.has_value(), it != ref.end());
      if (got.has_value()) {
        ASSERT_EQ(*got, it->second);
      }
    }
  }
  EXPECT_EQ(t.size(), ref.size());
}

TEST(CuckooTest, ForEachVisitsAllEntries) {
  Table t(128);
  for (std::uint32_t i = 0; i < 50; ++i) t.insert(tuple_of(i), static_cast<int>(i));
  int count = 0;
  long long sum = 0;
  t.for_each([&](const FiveTuple&, const int& v) {
    ++count;
    sum += v;
  });
  EXPECT_EQ(count, 50);
  EXPECT_EQ(sum, 49 * 50 / 2);
}

TEST(CuckooTest, CapacityRoundedUp) {
  Table t(100);
  EXPECT_GE(t.capacity(), 200u);  // 2x headroom, power-of-two buckets
}

}  // namespace
}  // namespace metro::net
