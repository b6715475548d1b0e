#pragma once
/// \file packed_cache.hpp
/// \brief Version-keyed cache of microkernel-packed weight panels.
///
/// Packing the weight matrix into mr-row panels (microkernel.hpp) costs one
/// pass over the weights; the panels are then reused by every GEMM call that
/// touches the layer — across batches, groups, and Session::run calls. The
/// cache key is (node, group); an entry is valid only while its recorded
/// Graph::version() and microkernel tile still match, so *any* weight
/// mutation that calls Graph::touch() — an OTA swap rebuilding the graph, a
/// WeightScrubber surgical repair, a ModelStore full restore — invalidates
/// the stale panels on the next run, and an env-forced dispatch-level change
/// (different tile shape or k grouping) repacks rather than feeding a
/// kernel the wrong layout.
///
/// Thread safety: lookups and packs run under one mutex, so concurrent
/// callers can pack different layers safely. After insertion an entry
/// is immutable for its (version, tile) lifetime, which keeps the returned
/// references valid across the run.

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "runtime/microkernel.hpp"
#include "util/thread_safety.hpp"

namespace vedliot::runtime_kernels {

class PackedWeightCache {
 public:
  /// Packed f32 weight panels for (node, group). Calls \p pack to (re)fill
  /// the buffer when the entry is absent, from another graph version, or
  /// packed for a different tile. The reference stays valid until clear().
  const std::vector<float>& get_f32(NodeId node, std::int64_t group,
                                    std::uint64_t graph_version, const MicrokernelTile& tile,
                                    const std::function<void(std::vector<float>&)>& pack);

  /// int8 variant: the packed buffer holds the k-group words (and, for
  /// quads, the per-row correction words) pack_a_s8 produces.
  const std::vector<std::int32_t>& get_s8(NodeId node, std::int64_t group,
                                          std::uint64_t graph_version,
                                          const MicrokernelTile& tile,
                                          const std::function<void(std::vector<std::int32_t>&)>& pack);

  /// Total pack invocations (misses + invalidations) — the cache-behavior
  /// test hook: steady-state runs must not grow this.
  std::size_t packs() const;

  void clear();

 private:
  template <typename T>
  struct Entry {
    std::vector<T> data;
    std::uint64_t version = 0;
    std::int64_t mr = 0, nr = 0, kgroup = 0;
  };
  using Key = std::pair<NodeId, std::int64_t>;

  template <typename T>
  const std::vector<T>& get(std::map<Key, Entry<T>>& table, NodeId node, std::int64_t group,
                            std::uint64_t graph_version, const MicrokernelTile& tile,
                            const std::function<void(std::vector<T>&)>& pack)
      VEDLIOT_REQUIRES(mutex_);

  mutable std::mutex mutex_;
  std::map<Key, Entry<float>> f32_ VEDLIOT_GUARDED_BY(mutex_);
  std::map<Key, Entry<std::int32_t>> s8_ VEDLIOT_GUARDED_BY(mutex_);
  std::size_t packs_ VEDLIOT_GUARDED_BY(mutex_) = 0;
};

}  // namespace vedliot::runtime_kernels
