#include "fixture.hpp"

#include <cstdio>
#include <fstream>
#include <iterator>
#include <stdexcept>

#include "core/datagen.hpp"
#include "core/serialize.hpp"
#include "util/hash.hpp"

namespace perfbench {

using namespace gns;

mpm::GranularSceneParams granular_scene() {
  mpm::GranularSceneParams params;
  params.cells_x = 32;
  params.cells_y = 16;
  params.domain_width = 1.0;
  params.domain_height = 0.5;
  params.particles_per_cell_dim = 2;
  return params;
}

core::FeatureConfig fixture_features() {
  core::FeatureConfig fc;
  fc.dim = 2;
  fc.history = 5;
  fc.connectivity_radius = 0.04;
  fc.domain_lo = {0.0, 0.0};
  fc.domain_hi = {1.0, 0.5};
  fc.material_feature = true;
  return fc;
}

core::GnsConfig fixture_model() {
  core::GnsConfig gc;
  gc.latent = 16;
  gc.mlp_hidden = 16;
  gc.mlp_layers = 2;
  gc.message_passing_steps = 3;
  return gc;
}

io::Trajectory column_trajectory(const ColumnSpec& spec, int frames) {
  mpm::GranularSceneParams params = granular_scene();
  params.material.friction_deg = spec.friction_deg;
  const double spacing = params.domain_width / params.cells_x /
                         params.particles_per_cell_dim;
  // A quarter spacing short of the next lattice site, so make_block's
  // half-offset lattice yields exactly nx x ny particles.
  const double width = (spec.nx - 0.25) * spacing;
  const double height = (spec.ny - 0.25) * spacing;
  mpm::Scene scene =
      mpm::make_column_collapse(params, width, height / width);
  mpm::MpmSolver solver = scene.make_solver();
  return core::record_mpm_trajectory(
      solver, frames, kSubsteps,
      core::material_param_from_friction(spec.friction_deg));
}

std::vector<ColumnSpec> training_columns() {
  const std::vector<std::pair<int, int>> shapes = {
      {8, 12}, {10, 19}, {14, 20}, {18, 22}, {22, 24}, {26, 27}};
  std::vector<ColumnSpec> columns;
  for (const auto& [nx, ny] : shapes)
    for (double phi : {20.0, 25.0, 35.0, 40.0, 45.0})
      columns.push_back({nx, ny, phi});
  return columns;
}

std::uint64_t file_digest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return 0;
  const std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                                std::istreambuf_iterator<char>());
  Fnv1a h;
  h.update(bytes.data(), bytes.size());
  return h.digest();
}

void verify_fixture(const std::string& path) {
  std::ifstream digest_file(path + ".digest");
  std::string expected;
  if (!(digest_file >> expected))
    throw std::runtime_error("fixture digest file missing: " + path +
                             ".digest");
  char actual[32];
  std::snprintf(actual, sizeof(actual), "%016llx",
                static_cast<unsigned long long>(file_digest(path)));
  if (expected != actual)
    throw std::runtime_error("fixture digest mismatch for " + path +
                             ": expected " + expected + ", got " + actual);
}

std::shared_ptr<const core::LearnedSimulator> load_fixture(
    const std::string& path) {
  verify_fixture(path);
  auto sim = core::load_simulator_shared(path);
  if (!sim)
    throw std::runtime_error("fixture failed to load (format change?): " +
                             path);
  return sim;
}

}  // namespace perfbench
