#include "runtime/packed_cache.hpp"

namespace vedliot::runtime_kernels {

template <typename T>
const std::vector<T>& PackedWeightCache::get(std::map<Key, Entry<T>>& table, NodeId node,
                                             std::int64_t group, std::uint64_t graph_version,
                                             const MicrokernelTile& tile,
                                             const std::function<void(std::vector<T>&)>& pack) {
  Entry<T>& e = table[{node, group}];
  if (e.version != graph_version || e.mr != tile.mr || e.nr != tile.nr ||
      e.kgroup != tile.kgroup || e.data.empty()) {
    e.data.clear();
    pack(e.data);
    e.version = graph_version;
    e.mr = tile.mr;
    e.nr = tile.nr;
    e.kgroup = tile.kgroup;
    ++packs_;
  }
  return e.data;
}

const std::vector<float>& PackedWeightCache::get_f32(
    NodeId node, std::int64_t group, std::uint64_t graph_version, const MicrokernelTile& tile,
    const std::function<void(std::vector<float>&)>& pack) {
  std::lock_guard<std::mutex> lock(mutex_);
  return get(f32_, node, group, graph_version, tile, pack);
}

const std::vector<std::int32_t>& PackedWeightCache::get_s8(
    NodeId node, std::int64_t group, std::uint64_t graph_version, const MicrokernelTile& tile,
    const std::function<void(std::vector<std::int32_t>&)>& pack) {
  std::lock_guard<std::mutex> lock(mutex_);
  return get(s8_, node, group, graph_version, tile, pack);
}

std::size_t PackedWeightCache::packs() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return packs_;
}

void PackedWeightCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  f32_.clear();
  s8_.clear();
}

}  // namespace vedliot::runtime_kernels
