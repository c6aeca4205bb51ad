#pragma once

/// \file arena.hpp
/// Former tensor-arena frame marker, now empty.
///
/// Tensor storage is plain std::vector allocation: a per-thread buffer
/// pool was measured neutral on steps/s while multiplying peak RSS several
/// times over (DESIGN.md §7), so it was removed. ArenaScope remains only
/// because the benchmark's step replay (perfbench/src/layers.cpp) still
/// opens one per step; delete it together with those call sites.

namespace gns::ad {

/// No-op RAII marker; constructing one has no effect.
class ArenaScope {
 public:
  ArenaScope() {}
  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;
};

}  // namespace gns::ad
