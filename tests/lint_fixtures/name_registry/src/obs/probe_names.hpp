// Fixture: one registry header with a metric and an event declaring
// the same string, two events swapped against the stability table, and
// an event the table has no row for.
#pragma once
namespace nsrel::obs {
struct EventName {
  const char* name;
  const char* counter = nullptr;
};
}  // namespace nsrel::obs
namespace nsrel::obs::probe {
inline constexpr const char* kHitsA = "cache.hits";
inline constexpr const char* kHitsB = "cache.hits";
}  // namespace nsrel::obs::probe
namespace nsrel::obs::event {
inline constexpr EventName kSolveStart{"solve.start"};
inline constexpr EventName kCacheHit{"cache.hits", probe::kHitsA};
inline constexpr EventName kCellClaim{"cell.claim"};
inline constexpr EventName kSimChunk{"sim.chunk"};
inline constexpr EventName kRepairBarrier{"repair.barrier"};
}  // namespace nsrel::obs::event
