#include "traced.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <stdexcept>

#include "src/aqm/droptail.hpp"
#include "src/aqm/factory.hpp"
#include "src/mapred/runtime.hpp"
#include "src/net/topology.hpp"
#include "src/workloads/driver.hpp"
#include "src/workloads/factory.hpp"

namespace ecnbench {

using namespace ecnsim;

namespace {

using Clock = std::chrono::steady_clock;

std::int64_t nsBetween(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

/// Forwarding decorator: the wrapped discipline makes every decision; this
/// only times the two hot calls. Every other virtual forwards, so ports,
/// stats and invariant sweeps see the wrapped queue unchanged.
class TimedQueue final : public Queue {
public:
    TimedQueue(std::unique_ptr<Queue> inner, OpTimer& enq, OpTimer& deq)
        : inner_(std::move(inner)), enq_(enq), deq_(deq) {}

    EnqueueOutcome enqueue(PacketPtr pkt, Time now) override {
        const auto t0 = Clock::now();
        const EnqueueOutcome o = inner_->enqueue(std::move(pkt), now);
        const auto t1 = Clock::now();
        ++enq_.calls;
        enq_.rawNs += nsBetween(t0, t1);
        return o;
    }

    PacketPtr dequeue(Time now) override {
        const auto t0 = Clock::now();
        PacketPtr p = inner_->dequeue(now);
        const auto t1 = Clock::now();
        ++deq_.calls;
        deq_.rawNs += nsBetween(t0, t1);
        return p;
    }

    std::size_t lengthPackets() const override { return inner_->lengthPackets(); }
    std::int64_t lengthBytes() const override { return inner_->lengthBytes(); }
    std::size_t capacityPackets() const override { return inner_->capacityPackets(); }
    bool empty() const override { return inner_->empty(); }
    std::vector<const Packet*> contents() const override { return inner_->contents(); }
    const QueueStats& stats() const override { return inner_->stats(); }
    std::string name() const override { return inner_->name(); }
    std::uint64_t fastPathHits() const override { return inner_->fastPathHits(); }
    bool checkConsistent(std::string& why) const override { return inner_->checkConsistent(why); }

private:
    std::unique_ptr<Queue> inner_;
    OpTimer& enq_;
    OpTimer& deq_;
};

QueueFactory timed(QueueFactory inner, OpTimer& enq, OpTimer& deq) {
    return [inner = std::move(inner), &enq, &deq]() -> std::unique_ptr<Queue> {
        return std::make_unique<TimedQueue>(inner(), enq, deq);
    };
}

}  // namespace

std::int64_t TracedRun::spanNs(const std::string& name) const {
    for (const auto& s : spans) {
        if (s.name == name) return s.endNs - s.startNs;
    }
    return 0;
}

TracedRun runTraced(const ExperimentConfig& cfg) {
    if (cfg.obs.anyEnabled() || !cfg.faultSpec.empty()) {
        throw std::invalid_argument("runTraced: " + cfg.name +
                                    " must run with obs off and no fault plan");
    }
    cfg.validate();

    TracedRun t;
    const auto origin = Clock::now();
    auto span = [&t, origin](const char* name, Clock::time_point a, Clock::time_point b) {
        t.spans.push_back({name, nsBetween(origin, a), nsBetween(origin, b)});
    };

    // Same construction order and arguments as runExperiment; the checker
    // outlives the simulation objects there too.
    InvariantChecker checker(InvariantMode::Off);
    auto sim = std::make_unique<Simulator>(cfg.seed, cfg.scheduler);
    sim->setInvariants(&checker);

    const auto netStart = Clock::now();
    auto net = std::make_unique<Network>(*sim);
    QueueConfig switchQ = cfg.switchQueue;
    switchQ.linkRate = cfg.linkRate;
    switchQ.capacityPackets = bufferCapacityPackets(cfg.buffers);
    const std::size_t hostCap = cfg.hostQueuePackets;
    TopologyConfig topo;
    topo.linkRate = cfg.linkRate;
    topo.linkDelay = cfg.linkDelay;
    topo.switchQueue = timed(makeQueueFactory(switchQ, sim->rng()), t.aqmEnqueue, t.aqmDequeue);
    topo.hostQueue = timed([hostCap] { return std::make_unique<DropTailQueue>(hostCap); },
                           t.nicEnqueue, t.nicDequeue);
    std::vector<HostNode*> hosts = cfg.topology == TopologyKind::Star
                                       ? buildStar(*net, cfg.numNodes, topo)
                                       : buildLeafSpine(*net, cfg.leafSpine, topo);

    const auto mapredStart = Clock::now();
    span("net.build", netStart, mapredStart);
    ClusterSpec cluster = cfg.cluster;
    cluster.numNodes = static_cast<int>(hosts.size());
    TcpConfig tcpConfig = TcpConfig::forTransport(cfg.transport);
    tcpConfig.ectOnControlPackets = cfg.ecnPlusPlus;
    tcpConfig.sackEnabled = cfg.sack;
    auto runtime = std::make_unique<ClusterRuntime>(*net, hosts, cluster, tcpConfig);

    const auto workloadStart = Clock::now();
    span("mapred.build", mapredStart, workloadStart);
    std::unique_ptr<WorkloadDriver> driver = makeWorkloadDriver(cfg.workload, cfg.job, *runtime);
    Simulator* simp = sim.get();
    driver->setOnComplete([simp] { simp->stop(); });
    driver->start();

    const auto runStart = Clock::now();
    span("workloads.build", workloadStart, runStart);
    sim->runUntil(cfg.horizon);
    const auto reportStart = Clock::now();
    span("sim.run", runStart, reportStart);

    net->verifyInvariants();
    const NetworkTelemetry& tel = net->telemetry();
    t.digest = tel.digest();
    t.timedOut = !driver->terminal();
    t.jobFailed = driver->failed();
    const WorkloadReport rep = driver->report(cfg.horizon);
    t.reqIssued = rep.reqIssued;
    t.reqCompleted = rep.reqCompleted;
    t.packetsDelivered = tel.packetsDelivered();

    for (const Queue* q : net->switchQueues()) {
        const auto s = q->stats().total();
        t.aqmMarks += s.marked;
        t.aqmEarlyDrops += s.droppedEarly;
        t.aqmOverflowDrops += s.droppedOverflow;
        t.fastPathHits += q->fastPathHits();
    }
    const auto ack = net->switchDropSummary(PacketClass::PureAck);
    t.ackEarlyDrops = ack.droppedEarly;
    t.ackOffered = ack.offered();
    for (const HostNode* h : hosts) {
        for (std::size_t p = 0; p < h->numPorts(); ++p) {
            t.nicDrops += h->port(p).queue().stats().total().dropped();
        }
    }

    t.events = sim->eventsExecuted();
    t.batchDrains = sim->batchDrains();
    t.maxBatch = sim->maxBatchSize();
    const SchedulerCounters sched = sim->schedulerCounters();
    t.timerChurn = sched.cancelled + sched.rearms;
    t.cascades = sched.cascades;
    t.maxLivePending = sched.maxLivePending;

    const TcpConnStats tcp = runtime->aggregateTcpStats();
    for (int i = 0; i < runtime->numNodes(); ++i) {
        t.connections += runtime->node(i).stack->connections().size();
    }
    t.segmentsSent = tcp.segmentsSent;
    t.acksSent = tcp.acksSent;
    t.retransmits = tcp.retransmits;
    t.rtoEvents = tcp.rtoEvents;
    t.synRetries = tcp.synRetries;
    t.bytesAcked = tcp.bytesAcked;
    t.bytesSent = tcp.bytesSent + tcp.bytesRetransmitted;

    const auto teardownStart = Clock::now();
    span("core.report", reportStart, teardownStart);
    // Reverse construction order, as the scope exit in runExperiment.
    driver.reset();
    runtime.reset();
    hosts.clear();
    net.reset();
    sim.reset();
    span("core.teardown", teardownStart, Clock::now());
    return t;
}

double calibrateClockNs() {
    // Each sample averages a chain of back-to-back reads, so the estimate
    // resolves finer than the clock's 1 ns tick.
    constexpr int kChain = 32;
    std::vector<double> samples(2001);
    for (auto& s : samples) {
        const auto a = Clock::now();
        for (int i = 1; i < kChain; ++i) (void)Clock::now();
        const auto b = Clock::now();
        s = static_cast<double>(nsBetween(a, b)) / kChain;
    }
    auto mid = samples.begin() + static_cast<std::ptrdiff_t>(samples.size() / 2);
    std::nth_element(samples.begin(), mid, samples.end());
    return *mid;
}

}  // namespace ecnbench
