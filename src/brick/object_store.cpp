#include "brick/object_store.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/probe_names.hpp"
#include "obs/recorder.hpp"
#include "util/assert.hpp"
#include "util/error.hpp"

namespace nsrel::brick {

namespace {

/// Counts one degraded read (a decode forced by a missing shard) when
/// the metrics registry is on, and journals it: inside a repair
/// barrier scope the event sorts right after the barrier that served
/// the read.
void count_degraded_read() { obs::emit(obs::event::kBrickDegradedRead); }

/// Indices of the erased shards of a survivor view, ascending.
std::vector<int> missing_shards(const std::vector<const Chunk*>& view) {
  std::vector<int> lost;
  for (std::size_t i = 0; i < view.size(); ++i) {
    if (view[i] == nullptr) lost.push_back(static_cast<int>(i));
  }
  return lost;
}

/// True when the view holds the k survivors a decode needs.
bool recoverable(const std::vector<const Chunk*>& view, int data_shards) {
  const auto survivors = std::count_if(
      view.begin(), view.end(), [](const Chunk* c) { return c != nullptr; });
  return survivors >= data_shards;
}

/// Shared body of the try_* twins: runs `fn`, converting the store's
/// exception vocabulary into typed Errors (DataLossError -> kDataLoss,
/// ErrorException -> its payload, ContractViolation -> the usual
/// kContractViolation the solve stack uses for caller-contract breaks).
template <typename Fn>
auto as_expected(Fn&& fn) -> Expected<decltype(fn())> {
  try {
    return fn();
  } catch (const DataLossError& e) {
    return Error{ErrorCode::kDataLoss, "brick.store", e.what()};
  } catch (const ErrorException& e) {
    return e.error();
  } catch (const ContractViolation& e) {
    return Error{ErrorCode::kContractViolation, "brick.store", e.what()};
  }
}

}  // namespace

ObjectStore::ObjectStore(const StoreParams& params)
    : params_(params),
      code_(params.redundancy_set_size - params.fault_tolerance,
            params.fault_tolerance),
      layout_({params.node_count, params.redundancy_set_size}) {
  NSREL_EXPECTS(params_.fault_tolerance >= 1);
  NSREL_EXPECTS(params_.redundancy_set_size > params_.fault_tolerance);
  NSREL_EXPECTS(params_.redundancy_set_size <= params_.node_count);
  NSREL_EXPECTS(params_.chunk_size.value() > 0.0);
  nodes_.reserve(static_cast<std::size_t>(params_.node_count));
  for (int i = 0; i < params_.node_count; ++i) {
    nodes_.emplace_back(i, params_.drives_per_node, params_.drive_capacity);
  }
}

const Node& ObjectStore::node(int id) const {
  NSREL_EXPECTS(id >= 0 && id < params_.node_count);
  return nodes_[static_cast<std::size_t>(id)];
}

std::vector<int> ObjectStore::place_stripe() {
  // A node can host a shard when it is alive AND some drive has room (a
  // fail-in-place node can be alive with every drive dead or full).
  const auto placeable = [&](int n) {
    const Node& candidate = nodes_[static_cast<std::size_t>(n)];
    return candidate.alive() &&
           candidate.free_bytes() >= params_.chunk_size.value();
  };
  // Walk the rotating layout until a slot whose R nodes all qualify —
  // the even-distribution placement of section 4.1.
  for (int attempt = 0; attempt < params_.node_count; ++attempt) {
    const std::vector<int> candidate =
        layout_.nodes_for_stripe(next_stripe_slot_);
    ++next_stripe_slot_;
    if (std::all_of(candidate.begin(), candidate.end(), placeable)) {
      return candidate;
    }
  }
  // Degraded fallback: with failures scattered, every R-consecutive window
  // can be blocked even while >= R nodes qualify. Place on the R usable
  // nodes with the most free space (correctness over evenness; the next
  // rebuild re-levels).
  std::vector<int> usable;
  for (int n = 0; n < params_.node_count; ++n) {
    if (placeable(n)) usable.push_back(n);
  }
  if (static_cast<int>(usable.size()) < params_.redundancy_set_size) {
    throw ContractViolation("fewer than R live nodes available for placement");
  }
  std::sort(usable.begin(), usable.end(), [&](int a, int b) {
    return nodes_[static_cast<std::size_t>(a)].free_bytes() >
           nodes_[static_cast<std::size_t>(b)].free_bytes();
  });
  usable.resize(static_cast<std::size_t>(params_.redundancy_set_size));
  return usable;
}

ObjectId ObjectStore::write(const std::vector<std::uint8_t>& bytes) {
  NSREL_EXPECTS(!bytes.empty());
  const auto chunk = static_cast<std::size_t>(params_.chunk_size.value());
  const int data_shards = code_.data_shards();
  const std::size_t stripe_capacity =
      chunk * static_cast<std::size_t>(data_shards);
  const std::size_t stripe_count =
      (bytes.size() + stripe_capacity - 1) / stripe_capacity;

  ObjectMeta meta;
  meta.size = bytes.size();
  for (std::size_t s = 0; s < stripe_count; ++s) {
    // Slice this stripe's data into k zero-padded chunks.
    std::vector<Chunk> shards(static_cast<std::size_t>(data_shards),
                              Chunk(chunk, 0));
    for (std::size_t i = 0; i < shards.size(); ++i) {
      const std::size_t begin =
          std::min(s * stripe_capacity + i * chunk, bytes.size());
      const std::size_t end = std::min(begin + chunk, bytes.size());
      std::copy(bytes.begin() + static_cast<long>(begin),
                bytes.begin() + static_cast<long>(end), shards[i].begin());
    }
    std::vector<Chunk> parity = code_.encode(shards);
    shards.insert(shards.end(), std::make_move_iterator(parity.begin()),
                  std::make_move_iterator(parity.end()));

    const std::vector<int> placement = place_stripe();
    Stripe stripe;
    stripe.shards.resize(shards.size());
    for (std::size_t i = 0; i < shards.size(); ++i) {
      Node& target = nodes_[static_cast<std::size_t>(placement[i])];
      const ChunkId id = next_chunk_++;
      const std::optional<int> drive = target.put(id, std::move(shards[i]));
      NSREL_EXPECTS(drive.has_value());  // out of space
      stripe.shards[i] = ShardLocation{placement[i], *drive, id};
    }
    meta.stripes.push_back(std::move(stripe));
  }
  const ObjectId id = next_object_++;
  objects_.emplace(id, std::move(meta));
  return id;
}

const Chunk* ObjectStore::fetch(const ShardLocation& loc) const {
  return nodes_[static_cast<std::size_t>(loc.node)].get(loc.drive, loc.chunk);
}

std::vector<const Chunk*> ObjectStore::gather(const Stripe& stripe) const {
  std::vector<const Chunk*> view;
  view.reserve(stripe.shards.size());
  for (const ShardLocation& loc : stripe.shards) view.push_back(fetch(loc));
  return view;
}

std::vector<std::uint8_t> ObjectStore::read(ObjectId id) const {
  const auto it = objects_.find(id);
  NSREL_EXPECTS(it != objects_.end());
  const ObjectMeta& meta = it->second;
  const auto chunk = static_cast<std::size_t>(params_.chunk_size.value());
  const int data_shards = code_.data_shards();

  std::vector<std::uint8_t> bytes;
  bytes.reserve(meta.size);
  for (const Stripe& stripe : meta.stripes) {
    const std::vector<const Chunk*> view = gather(stripe);
    if (!recoverable(view, code_.data_shards())) {
      throw DataLossError("object " + std::to_string(id) +
                          ": a stripe lost more shards than the code "
                          "tolerates");
    }
    std::vector<int> lost_data;
    for (int i = 0; i < data_shards; ++i) {
      if (view[static_cast<std::size_t>(i)] == nullptr) lost_data.push_back(i);
    }
    io_stats_.chunk_reads += static_cast<std::uint64_t>(data_shards);
    std::vector<Chunk> decoded;
    if (!lost_data.empty()) {
      ++io_stats_.decode_operations;
      count_degraded_read();
      decoded = code_.decode(view, lost_data);
    }
    auto next_decoded = decoded.begin();
    for (int i = 0; i < data_shards; ++i) {
      const Chunk* stored = view[static_cast<std::size_t>(i)];
      const Chunk& piece = stored != nullptr ? *stored : *next_decoded++;
      const std::size_t take = std::min(chunk, meta.size - bytes.size());
      bytes.insert(bytes.end(), piece.begin(),
                   piece.begin() + static_cast<long>(take));
    }
  }
  NSREL_ENSURES(bytes.size() == meta.size);
  io_stats_.logical_bytes += static_cast<double>(meta.size);
  return bytes;
}

std::vector<std::uint8_t> ObjectStore::read_range(ObjectId id,
                                                  std::size_t offset,
                                                  std::size_t length) const {
  const auto it = objects_.find(id);
  NSREL_EXPECTS(it != objects_.end());
  const ObjectMeta& meta = it->second;
  NSREL_EXPECTS(length > 0);
  NSREL_EXPECTS(offset + length <= meta.size);
  const auto chunk = static_cast<std::size_t>(params_.chunk_size.value());
  const auto data_shards = static_cast<std::size_t>(code_.data_shards());
  const std::size_t stripe_capacity = chunk * data_shards;

  std::vector<std::uint8_t> bytes;
  bytes.reserve(length);
  std::size_t cursor = offset;
  const std::size_t end = offset + length;
  while (cursor < end) {
    const std::size_t stripe_index = cursor / stripe_capacity;
    const std::size_t within_stripe = cursor % stripe_capacity;
    const std::size_t shard_index = within_stripe / chunk;
    const std::size_t within_chunk = within_stripe % chunk;
    const std::size_t take =
        std::min(chunk - within_chunk, end - cursor);

    const Stripe& stripe = meta.stripes[stripe_index];
    const Chunk* piece = fetch(stripe.shards[shard_index]);
    std::vector<Chunk> decoded;
    if (piece != nullptr) {
      ++io_stats_.chunk_reads;
    } else {
      // Degraded read: fetch k survivors of the stripe and decode only
      // the shard this read serves.
      const std::vector<const Chunk*> view = gather(stripe);
      if (!recoverable(view, code_.data_shards())) {
        throw DataLossError("object " + std::to_string(id) +
                            ": a stripe lost more shards than the code "
                            "tolerates");
      }
      io_stats_.chunk_reads += data_shards;
      ++io_stats_.decode_operations;
      count_degraded_read();
      const int wanted = static_cast<int>(shard_index);
      decoded = code_.decode(view, {&wanted, 1});
      piece = &decoded.front();
    }
    bytes.insert(bytes.end(),
                 piece->begin() + static_cast<long>(within_chunk),
                 piece->begin() + static_cast<long>(within_chunk + take));
    cursor += take;
  }
  io_stats_.logical_bytes += static_cast<double>(length);
  return bytes;
}

bool ObjectStore::fail_node(int id) {
  if (id < 0 || id >= params_.node_count) return false;
  return nodes_[static_cast<std::size_t>(id)].fail();
}

bool ObjectStore::fail_drive(int node_id, int drive_index) {
  if (node_id < 0 || node_id >= params_.node_count) return false;
  return nodes_[static_cast<std::size_t>(node_id)].fail_drive(drive_index);
}

RebuildReport ObjectStore::rebuild() {
  RebuildReport report;
  const auto chunk_bytes = params_.chunk_size.value();
  for (auto& [object_id, meta] : objects_) {
    for (Stripe& stripe : meta.stripes) {
      // Which shards are gone?
      const std::vector<const Chunk*> view = gather(stripe);
      const std::vector<int> lost = missing_shards(view);
      if (lost.empty()) continue;
      if (!recoverable(view, code_.data_shards())) {
        throw DataLossError("stripe of object " + std::to_string(object_id) +
                            " is beyond recovery");
      }
      // Account the R-t survivor reads the decode consumes.
      int inputs_counted = 0;
      for (std::size_t i = 0;
           i < view.size() && inputs_counted < code_.data_shards(); ++i) {
        if (view[i] == nullptr) continue;
        report.sourced_bytes[stripe.shards[i].node] += chunk_bytes;
        ++inputs_counted;
      }
      std::vector<Chunk> decoded = code_.decode(view, lost);

      // Re-place each lost shard on a live node outside the stripe.
      for (std::size_t l = 0; l < lost.size(); ++l) {
        const auto i = static_cast<std::size_t>(lost[l]);
        std::vector<bool> occupied(
            static_cast<std::size_t>(params_.node_count), false);
        for (std::size_t j = 0; j < stripe.shards.size(); ++j) {
          if (j != i && fetch(stripe.shards[j]) != nullptr) {
            occupied[static_cast<std::size_t>(stripe.shards[j].node)] = true;
          }
        }
        int target = -1;
        double best_free = chunk_bytes - 1.0;
        for (int n = 0; n < params_.node_count; ++n) {
          const Node& candidate = nodes_[static_cast<std::size_t>(n)];
          if (!candidate.alive() ||
              occupied[static_cast<std::size_t>(n)]) {
            continue;
          }
          if (candidate.free_bytes() > best_free) {
            target = n;
            best_free = candidate.free_bytes();
          }
        }
        if (target < 0) {
          throw ErrorException(
              Error{ErrorCode::kCapacityExhausted, "brick.store",
                    "no live node with spare capacity outside the stripe"});
        }
        const ChunkId new_chunk = next_chunk_++;
        const std::optional<int> drive =
            nodes_[static_cast<std::size_t>(target)].put(
                new_chunk, std::move(decoded[l]));
        NSREL_ASSERT(drive.has_value());
        stripe.shards[i] = ShardLocation{target, *drive, new_chunk};
        report.received_bytes[target] += chunk_bytes;
        report.bytes_reconstructed += chunk_bytes;
        ++report.shards_rebuilt;
      }
    }
  }
  return report;
}

[[nodiscard]] Expected<std::vector<std::uint8_t>> ObjectStore::try_read(ObjectId id) const {
  return as_expected([&] { return read(id); });
}

[[nodiscard]] Expected<std::vector<std::uint8_t>> ObjectStore::try_read_range(
    ObjectId id, std::size_t offset, std::size_t length) const {
  return as_expected([&] { return read_range(id, offset, length); });
}

std::vector<StripeRef> ObjectStore::degraded_stripes() const {
  std::vector<StripeRef> result;
  for (const auto& [object_id, meta] : objects_) {
    for (std::size_t s = 0; s < meta.stripes.size(); ++s) {
      const Stripe& stripe = meta.stripes[s];
      for (const ShardLocation& loc : stripe.shards) {
        if (fetch(loc) == nullptr) {
          result.push_back(
              StripeRef{object_id, static_cast<std::uint32_t>(s)});
          break;
        }
      }
    }
  }
  return result;
}

StripeStatus ObjectStore::stripe_status(const StripeRef& ref) const {
  const auto it = objects_.find(ref.object);
  NSREL_EXPECTS(it != objects_.end());
  NSREL_EXPECTS(ref.stripe < it->second.stripes.size());
  const Stripe& stripe = it->second.stripes[ref.stripe];
  StripeStatus status;
  status.shards = stripe.shards;
  status.available.reserve(stripe.shards.size());
  for (const ShardLocation& loc : stripe.shards) {
    status.available.push_back(fetch(loc) != nullptr);
  }
  return status;
}

[[nodiscard]] Expected<std::vector<Chunk>> ObjectStore::try_reconstruct_stripe(
    const StripeRef& ref) const {
  const auto it = objects_.find(ref.object);
  NSREL_EXPECTS(it != objects_.end());
  NSREL_EXPECTS(ref.stripe < it->second.stripes.size());
  const std::vector<const Chunk*> view = gather(it->second.stripes[ref.stripe]);
  if (!recoverable(view, code_.data_shards())) {
    return Error{ErrorCode::kDataLoss, "brick.store",
                 "stripe " + std::to_string(ref.stripe) + " of object " +
                     std::to_string(ref.object) +
                     " lost more shards than the code tolerates"};
  }
  return code_.decode(view, missing_shards(view));
}

[[nodiscard]] Expected<ShardLocation> ObjectStore::commit_repaired_shard(
    const StripeRef& ref, int shard_index, int target_node, Chunk chunk) {
  const auto it = objects_.find(ref.object);
  NSREL_EXPECTS(it != objects_.end());
  NSREL_EXPECTS(ref.stripe < it->second.stripes.size());
  Stripe& stripe = it->second.stripes[ref.stripe];
  const auto invalid = [&](const std::string& detail) {
    return Error{ErrorCode::kInvalidParameter, "brick.store",
                 "commit_repaired_shard: " + detail};
  };
  if (shard_index < 0 ||
      shard_index >= static_cast<int>(stripe.shards.size())) {
    return invalid("shard index " + std::to_string(shard_index) +
                   " out of range");
  }
  if (fetch(stripe.shards[static_cast<std::size_t>(shard_index)]) != nullptr) {
    return invalid("shard " + std::to_string(shard_index) +
                   " is still available (re-repair must be a no-op)");
  }
  if (target_node < 0 || target_node >= params_.node_count ||
      !nodes_[static_cast<std::size_t>(target_node)].alive()) {
    return invalid("target node " + std::to_string(target_node) +
                   " is out of range or dead");
  }
  if (chunk.size() != static_cast<std::size_t>(params_.chunk_size.value())) {
    return invalid("chunk size mismatch");
  }
  for (std::size_t j = 0; j < stripe.shards.size(); ++j) {
    if (static_cast<int>(j) != shard_index &&
        stripe.shards[j].node == target_node &&
        fetch(stripe.shards[j]) != nullptr) {
      return invalid("target node " + std::to_string(target_node) +
                     " already holds a live shard of this stripe");
    }
  }
  Node& target = nodes_[static_cast<std::size_t>(target_node)];
  const ChunkId new_chunk = next_chunk_++;
  const std::optional<int> drive = target.put(new_chunk, std::move(chunk));
  if (!drive.has_value()) {
    // The id was consumed but never stored; leaving a gap in the chunk-id
    // sequence is harmless (ids are opaque) and keeps this path simple.
    return Error{ErrorCode::kCapacityExhausted, "brick.store",
                 "target node " + std::to_string(target_node) +
                     " has no drive with room for the rebuilt shard"};
  }
  const ShardLocation location{target_node, *drive, new_chunk};
  stripe.shards[static_cast<std::size_t>(shard_index)] = location;
  return location;
}

std::uint64_t ObjectStore::content_fingerprint() const {
  // FNV-1a over the ordered logical state. std::map iteration gives a
  // canonical traversal; availability and bytes capture what a reader
  // could observe.
  std::uint64_t hash = 14695981039346656037ULL;
  const auto mix_byte = [&hash](std::uint8_t b) {
    hash ^= b;
    hash *= 1099511628211ULL;
  };
  const auto mix = [&mix_byte](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      mix_byte(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  };
  for (const auto& [object_id, meta] : objects_) {
    mix(object_id);
    mix(static_cast<std::uint64_t>(meta.size));
    for (const Stripe& stripe : meta.stripes) {
      for (const ShardLocation& loc : stripe.shards) {
        mix(static_cast<std::uint64_t>(loc.node));
        mix(static_cast<std::uint64_t>(loc.drive));
        mix(loc.chunk);
        const Chunk* data = fetch(loc);
        mix_byte(data != nullptr ? 1 : 0);
        if (data == nullptr) continue;
        for (const std::uint8_t b : *data) mix_byte(b);
      }
    }
  }
  return hash;
}

bool ObjectStore::fully_redundant() const {
  for (const auto& [object_id, meta] : objects_) {
    for (const Stripe& stripe : meta.stripes) {
      for (const ShardLocation& loc : stripe.shards) {
        if (fetch(loc) == nullptr) return false;
      }
    }
  }
  return true;
}

double ObjectStore::user_bytes() const {
  double total = 0.0;
  for (const auto& [object_id, meta] : objects_) {
    total += static_cast<double>(meta.size);
  }
  return total;
}

}  // namespace nsrel::brick
