#include "graph/neighbor_search.hpp"

#include "exec/parallel_for.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "obs/obs.hpp"

namespace gns::graph {

namespace {
// Encodes the skin fraction * 1e6 as an int; -1 = unset (read GNS_SKIN).
std::atomic<long long> g_skin_micro{-1};

/// Cell index along one axis for a floored coordinate `c`, clamped to
/// [0, n). The clamp happens in double: converting NaN, ±Inf or anything
/// beyond INT_MAX to int is undefined behaviour. NaN lands in cell 0.
int clamp_cell(double c, int n) {
  if (!(c >= 0.0)) return 0;  // negative or NaN
  if (c >= static_cast<double>(n - 1)) return n - 1;
  return static_cast<int>(c);
}
}  // namespace

double default_skin_fraction() {
  long long s = g_skin_micro.load(std::memory_order_relaxed);
  if (s < 0) {
    const char* env = std::getenv("GNS_SKIN");
    double f = 0.0;
    if (env != nullptr && env[0] != '\0') f = std::atof(env);
    if (!(f > 0.0)) f = 0.0;
    s = static_cast<long long>(f * 1e6);
    g_skin_micro.store(s, std::memory_order_relaxed);
  }
  return static_cast<double>(s) * 1e-6;
}

void set_default_skin_fraction(double fraction) {
  if (!(fraction > 0.0)) fraction = 0.0;
  g_skin_micro.store(static_cast<long long>(fraction * 1e6),
                     std::memory_order_relaxed);
}

CellList::CellList(double radius, Vec2 domain_min, Vec2 domain_max,
                   double skin)
    : radius_(radius),
      skin_(skin > 0.0 ? skin : 0.0),
      cell_size_(radius + skin_),
      min_(domain_min) {
  GNS_CHECK_MSG(radius > 0.0, "cell list radius must be positive");
  GNS_CHECK_MSG(domain_max.x > domain_min.x && domain_max.y > domain_min.y,
                "cell list domain must have positive extent");
  nx_ = std::max(1, static_cast<int>(std::ceil(
                        (domain_max.x - domain_min.x) / cell_size_)));
  ny_ = std::max(1, static_cast<int>(std::ceil(
                        (domain_max.y - domain_min.y) / cell_size_)));
}

std::array<int, 2> CellList::cell_coords(Vec2 p) const {
  return {clamp_cell(std::floor((p.x - min_.x) / cell_size_), nx_),
          clamp_cell(std::floor((p.y - min_.y) / cell_size_), ny_)};
}

int CellList::cell_of(Vec2 p) const {
  const auto [cx, cy] = cell_coords(p);
  return cy * nx_ + cx;
}

void CellList::build(const std::vector<Vec2>& positions) {
  GNS_TRACE_SCOPE("graph.neighbor_search.build");
  const int n = static_cast<int>(positions.size());
  const int num_cells = nx_ * ny_;
  // Counting sort of particle ids by cell.
  std::vector<int> counts(num_cells + 1, 0);
  std::vector<int> cell_id(n);
  for (int i = 0; i < n; ++i) {
    cell_id[i] = cell_of(positions[i]);
    ++counts[cell_id[i] + 1];
  }
  for (int c = 0; c < num_cells; ++c) counts[c + 1] += counts[c];
  cell_start_ = counts;
  sorted_ids_.assign(n, 0);
  std::vector<int> cursor(counts.begin(), counts.end() - 1);
  for (int i = 0; i < n; ++i) sorted_ids_[cursor[cell_id[i]]++] = i;
  if (skin_ > 0.0) {
    ref_positions_ = positions;
    // Candidate pairs within radius + skin (self included; queries filter
    // it out): every pair within `radius` at any reuse step is in here, by
    // the skin/2 displacement bound.
    const double rs = radius_ + skin_;
    const double rs2 = rs * rs;
    std::vector<std::vector<int>> cand(n);
    exec::parallel_for(n, true, [&](std::int64_t i) {
      const auto [cx, cy] = cell_coords(positions[i]);
      auto& list = cand[i];
      for (int dy = -1; dy <= 1; ++dy) {
        const int yy = cy + dy;
        if (yy < 0 || yy >= ny_) continue;
        for (int dx = -1; dx <= 1; ++dx) {
          const int xx = cx + dx;
          if (xx < 0 || xx >= nx_) continue;
          const int cell = yy * nx_ + xx;
          for (int s = cell_start_[cell]; s < cell_start_[cell + 1]; ++s) {
            const int j = sorted_ids_[s];
            const double ddx = positions[i].x - positions[j].x;
            const double ddy = positions[i].y - positions[j].y;
            if (ddx * ddx + ddy * ddy <= rs2) list.push_back(j);
          }
        }
      }
      std::sort(list.begin(), list.end());
    });
    cand_start_.assign(n + 1, 0);
    for (int i = 0; i < n; ++i)
      cand_start_[i + 1] =
          cand_start_[i] + static_cast<int>(cand[i].size());
    cand_ids_.resize(cand_start_[n]);
    for (int i = 0; i < n; ++i)
      std::copy(cand[i].begin(), cand[i].end(),
                cand_ids_.begin() + cand_start_[i]);
  }
}

bool CellList::maybe_rebuild(const std::vector<Vec2>& positions) {
  static auto& rebuilds =
      obs::MetricsRegistry::global().counter("graph.neighbor.rebuild");
  static auto& reuses =
      obs::MetricsRegistry::global().counter("graph.neighbor.reuse");
  const bool never_built = cell_start_.empty();
  bool stale = never_built || skin_ <= 0.0 ||
               ref_positions_.size() != positions.size();
  if (!stale) {
    // Reuse is safe while every particle is within skin/2 of where the
    // cells were built (see class comment for the bound).
    const double limit2 = (skin_ * 0.5) * (skin_ * 0.5);
    const int n = static_cast<int>(positions.size());
    for (int i = 0; i < n; ++i) {
      const double dx = positions[i].x - ref_positions_[i].x;
      const double dy = positions[i].y - ref_positions_[i].y;
      if (dx * dx + dy * dy > limit2) {
        stale = true;
        break;
      }
    }
  }
  if (stale) {
    build(positions);
    rebuilds.add();
    return true;
  }
  reuses.add();
  return false;
}

Graph CellList::radius_graph(const std::vector<Vec2>& positions,
                             bool include_self) const {
  GNS_TRACE_SCOPE("graph.neighbor_search.query");
  const int n = static_cast<int>(positions.size());
  GNS_CHECK_MSG(!cell_start_.empty(), "call build() before radius_graph()");
  Graph g;
  g.num_nodes = n;
  const double r2 = radius_ * radius_;

  // Pass 1 (parallel): per-particle neighbor lists into thread-local
  // buffers; pass 2 (serial): splice in particle order so the edge list is
  // deterministic regardless of thread count.
  std::vector<std::vector<int>> nbrs(n);
  if (skin_ > 0.0 &&
      cand_start_.size() == static_cast<std::size_t>(n) + 1) {
    // Verlet fast path: distance-filter the pre-sorted candidate pairs
    // (within radius + skin at build) at the exact radius against current
    // positions — the same edges the stencil scan below would produce.
    exec::parallel_for(n, true, [&](std::int64_t i) {
      auto& list = nbrs[i];
      for (int s = cand_start_[i]; s < cand_start_[i + 1]; ++s) {
        const int j = cand_ids_[s];
        if (j == i && !include_self) continue;
        const double ddx = positions[i].x - positions[j].x;
        const double ddy = positions[i].y - positions[j].y;
        if (ddx * ddx + ddy * ddy <= r2) list.push_back(j);
      }
    });
  } else {
    exec::parallel_for(n, true, [&](std::int64_t i) {
      const auto [cx, cy] = cell_coords(positions[i]);
      auto& list = nbrs[i];
      for (int dy = -1; dy <= 1; ++dy) {
        const int yy = cy + dy;
        if (yy < 0 || yy >= ny_) continue;
        for (int dx = -1; dx <= 1; ++dx) {
          const int xx = cx + dx;
          if (xx < 0 || xx >= nx_) continue;
          const int cell = yy * nx_ + xx;
          for (int s = cell_start_[cell]; s < cell_start_[cell + 1]; ++s) {
            const int j = sorted_ids_[s];
            if (j == i && !include_self) continue;
            const double ddx = positions[i].x - positions[j].x;
            const double ddy = positions[i].y - positions[j].y;
            if (ddx * ddx + ddy * ddy <= r2) list.push_back(j);
          }
        }
      }
      std::sort(list.begin(), list.end());
    });
  }
  std::size_t total = 0;
  for (const auto& list : nbrs) total += list.size();
  g.senders.reserve(total);
  g.receivers.reserve(total);
  for (int i = 0; i < n; ++i) {
    for (int j : nbrs[i]) {
      g.senders.push_back(j);
      g.receivers.push_back(i);
    }
  }
  return g;
}

std::vector<int> CellList::neighbors(const std::vector<Vec2>& positions,
                                     int query, bool include_self) const {
  GNS_CHECK(query >= 0 && query < static_cast<int>(positions.size()));
  std::vector<int> out;
  const double r2 = radius_ * radius_;
  const auto [cx, cy] = cell_coords(positions[query]);
  for (int dy = -1; dy <= 1; ++dy) {
    const int yy = cy + dy;
    if (yy < 0 || yy >= ny_) continue;
    for (int dx = -1; dx <= 1; ++dx) {
      const int xx = cx + dx;
      if (xx < 0 || xx >= nx_) continue;
      const int cell = yy * nx_ + xx;
      for (int s = cell_start_[cell]; s < cell_start_[cell + 1]; ++s) {
        const int j = sorted_ids_[s];
        if (j == query && !include_self) continue;
        const double ddx = positions[query].x - positions[j].x;
        const double ddy = positions[query].y - positions[j].y;
        if (ddx * ddx + ddy * ddy <= r2) out.push_back(j);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

Graph build_radius_graph(const std::vector<Vec2>& positions, double radius,
                         bool include_self) {
  GNS_TRACE_SCOPE("graph.neighbor_search.total");
  static auto& total_ms =
      obs::MetricsRegistry::global().histogram("graph.neighbor_search_ms");
  const obs::ScopedHistogramTimer phase_timer(total_ms);
  if (positions.empty()) return Graph{};  // zero nodes, zero edges
  Vec2 lo{std::numeric_limits<double>::max(),
          std::numeric_limits<double>::max()};
  Vec2 hi{std::numeric_limits<double>::lowest(),
          std::numeric_limits<double>::lowest()};
  for (const auto& p : positions) {
    lo.x = std::min(lo.x, p.x);
    lo.y = std::min(lo.y, p.y);
    hi.x = std::max(hi.x, p.x);
    hi.y = std::max(hi.y, p.y);
  }
  // Pad so degenerate (collinear / single-point) inputs still index.
  hi.x = std::max(hi.x, lo.x + radius);
  hi.y = std::max(hi.y, lo.y + radius);
  CellList cells(radius, lo, hi);
  cells.build(positions);
  return cells.radius_graph(positions, include_self);
}

Graph brute_force_radius_graph(const std::vector<Vec2>& positions,
                               double radius, bool include_self) {
  const int n = static_cast<int>(positions.size());
  Graph g;
  g.num_nodes = n;
  const double r2 = radius * radius;
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (i == j && !include_self) continue;
      const double dx = positions[i].x - positions[j].x;
      const double dy = positions[i].y - positions[j].y;
      if (dx * dx + dy * dy <= r2) {
        g.senders.push_back(j);
        g.receivers.push_back(i);
      }
    }
  }
  return g;
}

}  // namespace gns::graph
