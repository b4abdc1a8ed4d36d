#include "workloads.hpp"

#include "src/core/series.hpp"
#include "src/net/telemetry.hpp"

namespace ecnbench {

using namespace ecnsim;

namespace {

/// All four workloads share the 12-host star at 1 Gbps with 16 MiB of
/// Terasort input per node.
ExperimentConfig baseConfig() {
    SweepScale scale;
    scale.numNodes = 12;
    scale.inputBytesPerNode = 16 * 1024 * 1024;
    scale.repeats = 1;
    ExperimentConfig cfg = makeBaseConfig(scale);
    // Set explicitly so ECNSIM_OBS / ECNSIM_INVARIANTS cannot change what is
    // measured.
    cfg.obs = ObsConfig{};
    cfg.invariants = InvariantMode::Off;
    return cfg;
}

std::vector<ExperimentConfig> seeded(const ExperimentConfig& base, std::uint64_t seed, int n) {
    std::vector<ExperimentConfig> configs;
    for (int i = 0; i < n; ++i) {
        ExperimentConfig cfg = base;
        cfg.seed = seed + static_cast<std::uint64_t>(i);
        cfg.name = base.name + "/seed" + std::to_string(cfg.seed);
        configs.push_back(std::move(cfg));
    }
    return configs;
}

/// The paper's Terasort through classic RED+ECN (tools/bench_runner's full
/// shuffle_red_ecn scenario).
ExperimentConfig shuffleConfig() {
    ExperimentConfig cfg = baseConfig();
    cfg.name = "shuffle";
    cfg.transport = TransportKind::EcnTcp;
    cfg.switchQueue.kind = QueueKind::Red;
    cfg.switchQueue.redVariant = RedVariant::Classic;
    cfg.switchQueue.ecnEnabled = true;
    cfg.switchQueue.targetDelay = Time::microseconds(500);
    cfg.switchQueue.protection = ProtectionMode::Default;
    cfg.buffers = BufferProfile::Shallow;
    return cfg;
}

ExperimentConfig kvConfig() {
    ExperimentConfig cfg = baseConfig();
    cfg.name = "kv";
    cfg.transport = TransportKind::Dctcp;
    cfg.switchQueue.kind = QueueKind::Red;
    cfg.switchQueue.redVariant = RedVariant::DctcpMimic;
    cfg.switchQueue.ecnEnabled = true;
    cfg.switchQueue.targetDelay = Time::microseconds(100);
    cfg.workload.kind = WorkloadKind::KeyValue;
    cfg.workload.kv.clients = 8;
    cfg.workload.kv.replicas = 2;
    cfg.workload.kv.requestsPerClient = 2000;
    cfg.workload.kv.outstanding = 4;
    cfg.workload.kv.load = LoadMode::Closed;
    return cfg;
}

ExperimentConfig mixedConfig(ProtectionMode protection) {
    ExperimentConfig cfg = baseConfig();
    cfg.name = protection == ProtectionMode::ProtectAckSyn ? "mixed/acksyn" : "mixed/default";
    cfg.transport = TransportKind::Dctcp;
    cfg.switchQueue.kind = QueueKind::Red;
    cfg.switchQueue.redVariant = RedVariant::DctcpMimic;
    cfg.switchQueue.ecnEnabled = true;
    cfg.switchQueue.targetDelay = Time::microseconds(500);
    cfg.switchQueue.protection = protection;
    cfg.buffers = BufferProfile::Shallow;
    cfg.workload.kind = WorkloadKind::MixedTenancy;
    cfg.workload.mixed.rpcClients = 4;
    cfg.workload.mixed.opsPerSecPerClient = 400.0;
    return cfg;
}

double mean(const std::vector<ExperimentResult>& rs, double ExperimentResult::* field) {
    double sum = 0.0;
    for (const auto& r : rs) sum += r.*field;
    return rs.empty() ? 0.0 : sum / static_cast<double>(rs.size());
}

}  // namespace

const std::vector<std::string>& workloadNames() {
    static const std::vector<std::string> names{"shuffle", "kv", "mixed", "shuffle_obs"};
    return names;
}

bool makeWorkload(const std::string& name, std::uint64_t seed, Workload& out) {
    out = Workload{};
    out.name = name;
    if (name == "shuffle" || name == "shuffle_obs") {
        out.configs = seeded(shuffleConfig(), seed, 4);
        out.pinnedDigest = 0x4c37aa38b6b67a19ull;
        out.observed = name == "shuffle_obs";
        if (out.observed) out.configs = withObs(std::move(out.configs), true);
    } else if (name == "kv") {
        out.configs = seeded(kvConfig(), seed, 4);
        out.pinnedDigest = 0x469da79dc9a3a029ull;
    } else if (name == "mixed") {
        for (const ProtectionMode p : {ProtectionMode::Default, ProtectionMode::ProtectAckSyn}) {
            for (auto& cfg : seeded(mixedConfig(p), seed, 2)) out.configs.push_back(std::move(cfg));
        }
        out.pinnedDigest = 0x863238d623508ac7ull;
    } else {
        return false;
    }
    return true;
}

std::vector<ExperimentConfig> withObs(std::vector<ExperimentConfig> configs, bool full) {
    for (auto& cfg : configs) {
        cfg.obs = ObsConfig{};
        if (full) cfg.obs.applyMode("full");
    }
    return configs;
}

std::uint64_t combinedDigest(const std::vector<ExperimentResult>& results) {
    std::uint64_t d = NetworkTelemetry::kDigestSeed;
    for (const auto& r : results) d = NetworkTelemetry::foldDigest(d, r.telemetryDigest);
    return d;
}

ModelCheck checkModel(const Workload& w, const std::vector<ExperimentResult>& results) {
    ModelCheck m;
    std::uint64_t ackDropped = 0, ackOffered = 0;
    for (const auto& r : results) {
        ackDropped += r.ackDroppedEarly;
        ackOffered += r.ackOffered;
    }
    m.values = {
        {"model.runtime_s", mean(results, &ExperimentResult::runtimeSec)},
        {"model.goodput_mbps_per_node", mean(results, &ExperimentResult::throughputPerNodeMbps)},
        {"model.pkt_p99_us", mean(results, &ExperimentResult::p99LatencyUs)},
        {"model.ack_early_drop_pct",
         ackOffered ? 100.0 * static_cast<double>(ackDropped) / static_cast<double>(ackOffered)
                    : 0.0},
    };
    const WorkloadKind kind = w.configs.front().workload.kind;
    if (kind == WorkloadKind::KeyValue || kind == WorkloadKind::MixedTenancy) {
        m.values.emplace_back("model.req_p99_us", mean(results, &ExperimentResult::reqP99Us));
        for (const auto& r : results) {
            if (r.reqCompleted == 0) m.failures.push_back(r.name + ": no request completed");
        }
    }
    if (kind == WorkloadKind::MixedTenancy) {
        // The paper's headline effect seen from the application: protecting
        // ACKs and SYNs from early drop must shorten the RPC tail.
        std::vector<ExperimentResult> def, prot;
        for (std::size_t i = 0; i < results.size(); ++i) {
            const bool p = w.configs[i].switchQueue.protection == ProtectionMode::ProtectAckSyn;
            (p ? prot : def).push_back(results[i]);
        }
        const double gap = mean(def, &ExperimentResult::reqP99Us) -
                           mean(prot, &ExperimentResult::reqP99Us);
        m.values.emplace_back("model.rpc_p99_gap_us", gap);
        if (!(gap > 0.0)) {
            m.failures.push_back("mixed: rpc_p99_gap_us = " + std::to_string(gap) +
                                 " (ACK+SYN protection must beat Default)");
        }
    }
    return m;
}

}  // namespace ecnbench
