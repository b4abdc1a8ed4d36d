// The benchmark's workloads: the experiment batch one sample runs, generated
// from the --seed argument alone, plus the correctness checks every result
// of that batch must pass.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/core/experiment.hpp"

namespace ecnbench {

/// The seed the digest pins were taken at.
constexpr std::uint64_t kDefaultSeed = 1;

/// Why each workload exists is recorded in BENCHMARK.json and README.md.
struct Workload {
    std::string name;
    /// One sample's batch; the configs use seeds S, S+1, ...
    std::vector<ecnsim::ExperimentConfig> configs;
    /// Combined telemetry digest of the batch at kDefaultSeed.
    std::uint64_t pinnedDigest = 0;
    /// Runs with every obs sink on (the only workload where src/obs is hot).
    bool observed = false;
};

/// Names in the order a full run visits them.
const std::vector<std::string>& workloadNames();

/// Build workload `name` for seed `seed`; false for an unknown name.
bool makeWorkload(const std::string& name, std::uint64_t seed, Workload& out);

/// The same batch with obs set to off or to "full" (no file export).
std::vector<ecnsim::ExperimentConfig> withObs(std::vector<ecnsim::ExperimentConfig> configs,
                                              bool full);

/// NetworkTelemetry digests folded in batch order, as tools/bench_runner does.
std::uint64_t combinedDigest(const std::vector<ecnsim::ExperimentResult>& results);

/// Simulated outputs (printed as model.*). The telemetry digest locks them,
/// so they are checked, never timed.
struct ModelCheck {
    std::vector<std::pair<std::string, double>> values;
    std::vector<std::string> failures;  ///< empty when every check holds
};

ModelCheck checkModel(const Workload& w, const std::vector<ecnsim::ExperimentResult>& results);

}  // namespace ecnbench
