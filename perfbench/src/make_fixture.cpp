// Regenerates the benchmark's trained checkpoint from the repository's own
// MPM solver and GNS trainer. Deterministic for a given --seed; it takes a
// few minutes on four cores, which is why the result is committed instead
// of being rebuilt by every benchmark run.
//
// Usage: make_fixture [--out perfbench/fixture/columns_gns.bin]
//                     [--steps 4000] [--seed 17]
// Writes the checkpoint and `<out>.digest` (FNV-1a 64 of its bytes).

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "core/datagen.hpp"
#include "core/serialize.hpp"
#include "core/trainer.hpp"
#include "fixture.hpp"
#include "util/timer.hpp"

using namespace gns;

int main(int argc, char** argv) {
  std::string out = "perfbench/fixture/columns_gns.bin";
  int steps = 4000;
  std::uint64_t seed = 17;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key == "--out") out = argv[i + 1];
    else if (key == "--steps") steps = std::atoi(argv[i + 1]);
    else if (key == "--seed") seed = std::strtoull(argv[i + 1], nullptr, 10);
    else {
      std::fprintf(stderr, "unknown option %s\n", key.c_str());
      return 2;
    }
  }

  Timer timer;
  io::Dataset dataset;
  for (const auto& spec : perfbench::training_columns())
    dataset.trajectories.push_back(
        perfbench::column_trajectory(spec, perfbench::kTrainFrames));
  std::printf("datagen: %zu trajectories in %.1f s\n",
              dataset.trajectories.size(), timer.seconds());

  core::LearnedSimulator sim = core::make_simulator(
      dataset, perfbench::fixture_features(), perfbench::fixture_model());
  core::TrainConfig tc;
  tc.steps = steps;
  tc.lr = 2e-3;
  tc.lr_final = 2e-4;
  tc.noise_std = 3e-4;
  tc.seed = seed;
  tc.log_every = 500;
  const auto report = core::train_gns(
      sim, dataset, tc, [&](int step, double loss) {
        std::printf("train step %5d loss %.5f (%.0f s)\n", step, loss,
                    timer.seconds());
        std::fflush(stdout);
      });
  core::save_simulator(sim, out);

  char digest[32];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(perfbench::file_digest(out)));
  std::ofstream(out + ".digest") << digest << "\n";
  std::printf("wrote %s (digest %s, final loss %.5f) in %.0f s\n",
              out.c_str(), digest, report.final_loss_ema, timer.seconds());
  return 0;
}
