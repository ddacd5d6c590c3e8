#include "brick/node.hpp"

#include <algorithm>
#include <cstddef>
#include <optional>
#include <utility>

#include "util/assert.hpp"

namespace nsrel::brick {

Drive::Drive(Bytes capacity) : capacity_(capacity.value()) {
  NSREL_EXPECTS(capacity_ > 0.0);
}

bool Drive::put(ChunkId id, Chunk chunk) {
  if (!alive_) return false;
  const double size = static_cast<double>(chunk.size());
  if (used_ + size > capacity_) return false;
  NSREL_EXPECTS(!chunks_.contains(id));
  used_ += size;
  chunks_.emplace(id, std::move(chunk));
  return true;
}

const Chunk* Drive::get(ChunkId id) const {
  if (!alive_) return nullptr;
  const auto it = chunks_.find(id);
  return it == chunks_.end() ? nullptr : &it->second;
}

void Drive::drop(ChunkId id) {
  const auto it = chunks_.find(id);
  if (it == chunks_.end()) return;
  used_ -= static_cast<double>(it->second.size());
  chunks_.erase(it);
}

bool Drive::fail() {
  const bool changed = alive_;
  alive_ = false;
  return changed;
}

Node::Node(int id, int drives, Bytes drive_capacity) : id_(id) {
  NSREL_EXPECTS(drives >= 1);
  drives_.reserve(static_cast<std::size_t>(drives));
  for (int i = 0; i < drives; ++i) drives_.emplace_back(drive_capacity);
}

const Drive& Node::drive(int index) const {
  NSREL_EXPECTS(index >= 0 && index < drive_count());
  return drives_[static_cast<std::size_t>(index)];
}

double Node::used_bytes() const {
  double total = 0.0;
  for (const Drive& d : drives_) {
    if (d.alive()) total += d.used_bytes();
  }
  return alive_ ? total : 0.0;
}

double Node::capacity_bytes() const {
  if (!alive_) return 0.0;
  double total = 0.0;
  for (const Drive& d : drives_) {
    if (d.alive()) total += d.capacity_bytes();
  }
  return total;
}

std::optional<int> Node::put(ChunkId id, Chunk chunk) {
  if (!alive_) return std::nullopt;
  int best = -1;
  double best_free = static_cast<double>(chunk.size()) - 1.0;
  for (int i = 0; i < drive_count(); ++i) {
    const Drive& d = drives_[static_cast<std::size_t>(i)];
    if (d.alive() && d.free_bytes() > best_free) {
      best = i;
      best_free = d.free_bytes();
    }
  }
  if (best < 0) return std::nullopt;
  const bool stored =
      drives_[static_cast<std::size_t>(best)].put(id, std::move(chunk));
  NSREL_ASSERT(stored);
  return best;
}

const Chunk* Node::get(int drive_index, ChunkId id) const {
  NSREL_EXPECTS(drive_index >= 0 && drive_index < drive_count());
  if (!alive_) return nullptr;
  return drives_[static_cast<std::size_t>(drive_index)].get(id);
}

void Node::drop(int drive_index, ChunkId id) {
  NSREL_EXPECTS(drive_index >= 0 && drive_index < drive_count());
  drives_[static_cast<std::size_t>(drive_index)].drop(id);
}

bool Node::fail() {
  const bool changed = alive_;
  alive_ = false;
  return changed;
}

bool Node::fail_drive(int drive_index) {
  if (drive_index < 0 || drive_index >= drive_count()) return false;
  return drives_[static_cast<std::size_t>(drive_index)].fail();
}

}  // namespace nsrel::brick
