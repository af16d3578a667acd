// Verifies KineticTree::MemoryBytes against a malloc-counting global
// allocator: the reported figure for a freshly copied tree must equal the bytes the copy actually
// allocated, to the byte. A copy is the right subject because vector copy
// constructors allocate exactly size() elements, making capacity
// bookkeeping deterministic.
//
// The binary overrides global operator new/delete, so it must stay out of
// the sanitizer sweeps (allocator interposition would double-count); see
// tests/CMakeLists.txt.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "graph/distance_oracle.h"
#include "kinetic/kinetic_tree.h"
#include "tests/test_util.h"

namespace {

// Live requested-byte counter. Every allocation carries a 16-byte header
// holding its requested size so deallocation can subtract exactly.
std::atomic<std::int64_t> g_live_bytes{0};
constexpr std::size_t kHeader = 16;
static_assert(kHeader >= sizeof(std::size_t));
static_assert(kHeader % alignof(std::max_align_t) == 0);

void* CountingAlloc(std::size_t n) {
  void* raw = std::malloc(n + kHeader);
  if (raw == nullptr) return nullptr;
  *static_cast<std::size_t*>(raw) = n;
  g_live_bytes.fetch_add(static_cast<std::int64_t>(n),
                         std::memory_order_relaxed);
  return static_cast<char*>(raw) + kHeader;
}

void CountingFree(void* p) {
  if (p == nullptr) return;
  void* raw = static_cast<char*>(p) - kHeader;
  g_live_bytes.fetch_sub(
      static_cast<std::int64_t>(*static_cast<std::size_t*>(raw)),
      std::memory_order_relaxed);
  std::free(raw);
}

std::int64_t LiveBytes() {
  return g_live_bytes.load(std::memory_order_relaxed);
}

}  // namespace

void* operator new(std::size_t n) {
  void* p = CountingAlloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n) { return operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return CountingAlloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t& tag) noexcept {
  return operator new(n, tag);
}
void operator delete(void* p) noexcept { CountingFree(p); }
void operator delete[](void* p) noexcept { CountingFree(p); }
void operator delete(void* p, std::size_t) noexcept { CountingFree(p); }
void operator delete[](void* p, std::size_t) noexcept { CountingFree(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  CountingFree(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  CountingFree(p);
}

namespace ptar {
namespace {

/// Grows an arena tree with a few committed requests on the small grid so
/// it holds a real multi-branch state.
struct GrownTree {
  DistanceOracle oracle;
  KineticTree::DistFn dist;
  KineticTree arena;

  explicit GrownTree(const RoadNetwork* g)
      : oracle(g),
        dist([this](VertexId a, VertexId b) { return oracle.Dist(a, b); }),
        arena(0, 0, 4) {}
};

void GrowTree(GrownTree* t) {
  RequestId next_id = 1;
  const std::pair<VertexId, VertexId> trips[] = {{1, 8}, {3, 5}, {6, 2}};
  for (const auto& [s, d] : trips) {
    Request r;
    r.id = next_id++;
    r.start = s;
    r.destination = d;
    r.riders = 1;
    r.max_wait_dist = 1500.0;
    r.epsilon = 1.5;
    const Distance direct = t->dist(s, d);
    ASSERT_TRUE(t->arena.Commit(r, direct, direct, t->dist).ok());
  }
  ASSERT_GT(t->arena.num_branches(), 1u);
}

TEST(KineticMemoryTest, ArenaMemoryBytesMatchesAllocatorExactly) {
  const RoadNetwork g = testing::MakeSmallGrid();
  GrownTree t(&g);
  GrowTree(&t);

  const std::int64_t before = LiveBytes();
  KineticTree copy(t.arena);
  const std::int64_t after = LiveBytes();

  EXPECT_EQ(after - before,
            static_cast<std::int64_t>(copy.MemoryBytes() -
                                      sizeof(KineticTree)));
  EXPECT_GT(copy.MemoryBytes(), sizeof(KineticTree));
}

TEST(KineticMemoryTest, IdleArenaTreeOwnsNoHeap) {
  KineticTree idle(7, 3, 4);
  const std::int64_t before = LiveBytes();
  KineticTree copy(idle);
  const std::int64_t after = LiveBytes();
  EXPECT_EQ(after - before, 0);
  EXPECT_EQ(copy.MemoryBytes(), sizeof(KineticTree));
}

}  // namespace
}  // namespace ptar
