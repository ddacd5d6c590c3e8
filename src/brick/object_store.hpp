// The distributed object store over a collection of bricks — a working
// implementation of the system the paper models: objects are striped into
// redundancy sets of size R (R-t data + t Reed-Solomon parity shards)
// placed on R distinct nodes by the rotating even layout; node and drive
// failures are tolerated fail-in-place; `rebuild()` reconstructs every
// lost shard from survivors into the distributed spare capacity and
// reports exactly how many bytes each node sourced and received — the
// quantities section 5.1's flow model predicts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "brick/node.hpp"
#include "erasure/reed_solomon.hpp"
#include "placement/layout.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace nsrel::brick {

/// Thrown when data is genuinely gone (more erasures than the code
/// tolerates on some stripe).
class DataLossError : public std::runtime_error {
 public:
  explicit DataLossError(const std::string& what)
      : std::runtime_error(what) {}
};

using ObjectId = std::uint64_t;

struct StoreParams {
  int node_count = 16;
  int drives_per_node = 4;
  Bytes drive_capacity = megabytes(1.0);
  int redundancy_set_size = 8;  ///< R
  int fault_tolerance = 2;      ///< t
  Bytes chunk_size = kilobytes(4.0);  ///< shard size
};

/// Where one shard of one stripe lives.
struct ShardLocation {
  int node = -1;
  int drive = -1;
  ChunkId chunk = 0;
};

struct RebuildReport {
  std::size_t shards_rebuilt = 0;
  double bytes_reconstructed = 0.0;
  /// Bytes each node contributed as rebuild input (by node id).
  std::map<int, double> sourced_bytes;
  /// Bytes each node received as rebuilt output (by node id).
  std::map<int, double> received_bytes;
};

/// Identifies one stripe of one object — the unit of repair planning.
struct StripeRef {
  ObjectId object = 0;
  std::uint32_t stripe = 0;

  friend bool operator==(const StripeRef&, const StripeRef&) = default;
  friend bool operator<(const StripeRef& a, const StripeRef& b) {
    return a.object != b.object ? a.object < b.object : a.stripe < b.stripe;
  }
};

/// Snapshot of a stripe's shard placement and per-shard availability.
struct StripeStatus {
  std::vector<ShardLocation> shards;  ///< R entries, shard index = position
  std::vector<bool> available;        ///< parallel to shards

  [[nodiscard]] int missing() const {
    int count = 0;
    for (const bool ok : available) count += ok ? 0 : 1;
    return count;
  }
};

class ObjectStore {
 public:
  /// Preconditions: 1 <= t < R <= node_count; chunk_size > 0.
  explicit ObjectStore(const StoreParams& params);

  [[nodiscard]] const StoreParams& params() const { return params_; }
  [[nodiscard]] const Node& node(int id) const;

  /// Stores an object; splits it into stripes of (R-t) data chunks (the
  /// last stripe zero-padded), encodes t parity chunks per stripe, and
  /// places each stripe on R distinct live nodes.
  /// Throws ContractViolation when too few live nodes or out of space.
  ObjectId write(const std::vector<std::uint8_t>& bytes);

  /// Reads an object back, reconstructing shards from parity where nodes
  /// or drives have failed. Throws DataLossError when some stripe has
  /// more than t shards missing.
  [[nodiscard]] std::vector<std::uint8_t> read(ObjectId id) const;

  /// Typed twin of read(): kDataLoss when a stripe is beyond recovery
  /// instead of the thrown DataLossError.
  [[nodiscard]] Expected<std::vector<std::uint8_t>> try_read(
      ObjectId id) const;

  /// Partial read: [offset, offset+length) of the object. Healthy chunks
  /// are fetched directly (one chunk read per touched chunk); a chunk on
  /// a failed node/drive forces a degraded read of R-t survivor chunks
  /// plus a decode — the read-amplification mechanism the
  /// rebuild::DegradedModel prices. Preconditions: offset+length within
  /// the object, length > 0.
  [[nodiscard]] std::vector<std::uint8_t> read_range(ObjectId id,
                                                     std::size_t offset,
                                                     std::size_t length) const;

  /// Typed twin of read_range().
  [[nodiscard]] Expected<std::vector<std::uint8_t>> try_read_range(
      ObjectId id, std::size_t offset, std::size_t length) const;

  /// I/O accounting since the last reset (chunk fetches, decode events,
  /// logical bytes served). Counts read() and read_range() work.
  struct IoStats {
    std::uint64_t chunk_reads = 0;
    std::uint64_t decode_operations = 0;
    double logical_bytes = 0.0;
    /// Physical chunk reads per logical chunk-equivalent served.
    [[nodiscard]] double read_amplification(double chunk_size) const {
      const double logical_chunks = logical_bytes / chunk_size;
      return logical_chunks > 0.0
                 ? static_cast<double>(chunk_reads) / logical_chunks
                 : 0.0;
    }
  };
  [[nodiscard]] const IoStats& io_stats() const { return io_stats_; }
  void reset_io_stats() { io_stats_ = IoStats{}; }

  /// Fail-in-place events. Idempotent and range-checked: out-of-range
  /// ids and repeat failures return false (no state change) rather than
  /// crashing — fault schedules replay raw ids without pre-validation.
  /// Returns true exactly when this call killed a live node/drive.
  bool fail_node(int id);
  bool fail_drive(int node_id, int drive_index);

  /// Reconstructs every shard lost to failed nodes/drives onto live nodes
  /// outside each stripe's surviving set, restoring full redundancy.
  /// Throws ErrorException(kCapacityExhausted) when the survivors lack
  /// capacity or DataLossError when a stripe is beyond recovery.
  /// (Single-threaded, all-or-nothing; src/repair is the concurrent,
  /// fault-tolerant engine built on the stripe-level API below.)
  RebuildReport rebuild();

  // --- stripe-level repair API (used by repair::run_repair) -----------

  /// Every stripe with at least one unavailable shard, in deterministic
  /// (object id, stripe index) order.
  [[nodiscard]] std::vector<StripeRef> degraded_stripes() const;

  /// Placement + availability snapshot. Precondition: ref is valid.
  [[nodiscard]] StripeStatus stripe_status(const StripeRef& ref) const;

  /// Decodes the stripe's lost shards, in shard-index order, from its
  /// first k survivors read in place (empty when nothing is lost).
  /// Read-only and safe to call concurrently with other const reads (it
  /// bypasses the IoStats counters). kDataLoss when more than t shards
  /// are missing. Precondition: ref is valid.
  [[nodiscard]] Expected<std::vector<Chunk>> try_reconstruct_stripe(
      const StripeRef& ref) const;

  /// Installs a reconstructed shard on `target_node` and repoints the
  /// stripe's metadata at it. NOT thread-safe — the repair engine
  /// serializes commits in task order, which is what makes the final
  /// store state jobs-invariant. Errors: kInvalidParameter (bad index,
  /// shard still available, target dead or already holding a live shard
  /// of this stripe) and kCapacityExhausted (target has no room).
  [[nodiscard]] Expected<ShardLocation> commit_repaired_shard(
      const StripeRef& ref, int shard_index, int target_node, Chunk chunk);

  /// Order-independent digest of the full logical state: object metadata,
  /// shard placements, availability, and the bytes of every available
  /// chunk. Two stores with equal fingerprints hold byte-identical data
  /// in identical locations — the jobs-invariance tests' equality oracle.
  [[nodiscard]] std::uint64_t content_fingerprint() const;

  /// True when every stripe of every object has all R shards on live
  /// nodes and drives (full redundancy).
  [[nodiscard]] bool fully_redundant() const;

  /// Total user-data bytes stored (excluding parity overhead).
  [[nodiscard]] double user_bytes() const;

 private:
  struct Stripe {
    std::vector<ShardLocation> shards;  // R entries, shard index = position
  };
  struct ObjectMeta {
    std::vector<Stripe> stripes;
    std::size_t size = 0;
  };

  /// The shard's stored chunk, read in place; nullptr when its node or
  /// drive is dead (the shard is unavailable).
  [[nodiscard]] const Chunk* fetch(const ShardLocation& loc) const;
  /// The stripe's survivor view: one chunk pointer per shard, nullptr
  /// where the shard is unavailable.
  [[nodiscard]] std::vector<const Chunk*> gather(const Stripe& stripe) const;
  /// Picks R distinct live nodes for a new stripe via the rotating layout.
  [[nodiscard]] std::vector<int> place_stripe();

  StoreParams params_;
  erasure::ReedSolomonCode code_;
  placement::RotatingPlacement layout_;
  std::vector<Node> nodes_;
  std::map<ObjectId, ObjectMeta> objects_;
  ObjectId next_object_ = 1;
  ChunkId next_chunk_ = 1;
  std::uint64_t next_stripe_slot_ = 0;
  mutable IoStats io_stats_;
};

}  // namespace nsrel::brick
