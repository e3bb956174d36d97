#include "sta/snapshot.hpp"

namespace mgba {

TimingSnapshot::TimingSnapshot(const Timer& timer)
    : data_(timer.data_),  // the COW fork: O(1) per arena
      graph_(timer.graph_),
      statics_(timer.statics_),
      corners_(timer.corners_),
      derates_(timer.derates_),
      exceptions_(timer.exceptions_),
      delay_(&timer.delay_),
      constraints_(&timer.constraints_),
      version_(timer.state_version_) {}

Timer::MemoryStats TimingSnapshot::memory_stats() const {
  Timer::MemoryStats m;
  m.num_nodes = graph_->num_nodes();
  m.num_arcs = graph_->num_arcs();
  m.num_corners = corners_.size();
  m.arena_bytes = data_.bytes();
  const std::size_t lanes = corners_.size() * kNumModes;
  m.arena_bytes_per_lane = lanes == 0 ? 0 : m.arena_bytes / lanes;
  const TimingData::CowStats cs = data_.cow_stats();
  m.cow_chunks = cs.chunks;
  m.cow_shared_chunks = cs.shared_chunks;
  return m;
}

}  // namespace mgba
