// A storage brick: the sealed unit of the Collective-Intelligent-Bricks
// system the paper models — a controller with d drives, no field service.
// Chunks are stored on specific drives so that drive failures (which in
// the no-internal-RAID configurations erase single shards of many
// stripes) and whole-node failures are both representable.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "erasure/reed_solomon.hpp"  // Shard alias
#include "util/units.hpp"

namespace nsrel::brick {

using ChunkId = std::uint64_t;
using Chunk = erasure::Shard;

class Drive {
 public:
  explicit Drive(Bytes capacity);

  [[nodiscard]] bool alive() const { return alive_; }
  [[nodiscard]] double used_bytes() const { return used_; }
  [[nodiscard]] double capacity_bytes() const { return capacity_; }
  [[nodiscard]] double free_bytes() const { return capacity_ - used_; }
  [[nodiscard]] std::size_t chunk_count() const { return chunks_.size(); }

  /// Stores a chunk; returns false when the drive is dead or full.
  bool put(ChunkId id, Chunk chunk);

  /// The stored chunk, read in place; nullptr when dead or absent. The
  /// pointer stays valid until the next put() or drop() on this drive.
  [[nodiscard]] const Chunk* get(ChunkId id) const;

  /// Removes a chunk (idempotent); frees its space.
  void drop(ChunkId id);

  /// Fail-in-place: contents become permanently unreadable. Idempotent;
  /// returns true when this call changed the state (a fresh failure),
  /// false when the drive was already dead.
  bool fail();

 private:
  double capacity_;
  double used_ = 0.0;
  bool alive_ = true;
  std::unordered_map<ChunkId, Chunk> chunks_;
};

class Node {
 public:
  Node(int id, int drives, Bytes drive_capacity);

  [[nodiscard]] int id() const { return id_; }
  [[nodiscard]] bool alive() const { return alive_; }
  [[nodiscard]] int drive_count() const { return static_cast<int>(drives_.size()); }
  [[nodiscard]] const Drive& drive(int index) const;

  /// Total bytes stored on live drives / total live capacity.
  [[nodiscard]] double used_bytes() const;
  [[nodiscard]] double capacity_bytes() const;
  [[nodiscard]] double free_bytes() const {
    return capacity_bytes() - used_bytes();
  }

  /// Stores a chunk on the live drive with the most free space; returns
  /// the drive index, or nullopt when the node is dead or full.
  std::optional<int> put(ChunkId id, Chunk chunk);

  /// Reads a chunk in place from the given drive; nullptr when node/drive
  /// dead or chunk absent. Valid until that drive's next put() or drop().
  [[nodiscard]] const Chunk* get(int drive_index, ChunkId id) const;

  void drop(int drive_index, ChunkId id);

  /// Whole-node failure (controller/power): everything inaccessible.
  /// Idempotent; returns true only on the first (state-changing) call.
  bool fail();

  /// Single-drive failure. Idempotent and range-checked: an out-of-range
  /// index or an already-dead drive returns false instead of crashing —
  /// fault schedules replay raw (node, drive) ids without pre-validation.
  bool fail_drive(int drive_index);

 private:
  int id_;
  bool alive_ = true;
  std::vector<Drive> drives_;
};

}  // namespace nsrel::brick
