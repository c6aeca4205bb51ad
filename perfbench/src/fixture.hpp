#pragma once

/// \file fixture.hpp
/// The trained checkpoint every workload serves, and the column-collapse
/// scenes requests are cut from.
///
/// The checkpoint is a φ-conditioned GNS trained by make_fixture on MPM
/// column collapses whose particle counts span every workload's scene mix
/// (96..702 particles, φ 20..45°), so served rollouts stay inside the
/// training distribution and inside the feature domain. Its FNV-1a digest
/// is committed next to it and checked at load: a change to the checkpoint
/// format or to the file fails loudly instead of silently serving
/// different weights.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/simulator.hpp"
#include "io/trajectory.hpp"
#include "mpm/scenes.hpp"

namespace perfbench {

/// A column of nx x ny particles on the MPM lattice released at the left
/// wall, with Mohr-Coulomb friction angle `friction_deg`.
struct ColumnSpec {
  int nx = 10;
  int ny = 19;
  double friction_deg = 30.0;
};

/// MPM scene every fixture trajectory and request window comes from.
[[nodiscard]] gns::mpm::GranularSceneParams granular_scene();
inline constexpr int kSubsteps = 20;  ///< MPM steps per GNS frame
inline constexpr int kTrainFrames = 60;

[[nodiscard]] gns::core::FeatureConfig fixture_features();
[[nodiscard]] gns::core::GnsConfig fixture_model();

/// Runs the MPM column collapse and records `frames` GNS frames.
[[nodiscard]] gns::io::Trajectory column_trajectory(const ColumnSpec& spec,
                                                    int frames);

/// The training set make_fixture regenerates the checkpoint from.
[[nodiscard]] std::vector<ColumnSpec> training_columns();

/// FNV-1a 64 of a file's bytes; 0 when unreadable.
[[nodiscard]] std::uint64_t file_digest(const std::string& path);

/// Throws std::runtime_error unless the file's digest equals the one
/// recorded in `<path>.digest`.
void verify_fixture(const std::string& path);

/// Loads the checkpoint after verifying its digest against
/// `<path>.digest`. Throws std::runtime_error on any mismatch or load
/// failure.
[[nodiscard]] std::shared_ptr<const gns::core::LearnedSimulator>
load_fixture(const std::string& path);

}  // namespace perfbench
