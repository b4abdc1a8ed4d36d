// The traced pass: a copy of runExperiment's assembly (src/core/runner.cpp)
// made only of public calls, which times each layer from outside.
//
//   - Every switch egress queue (aqm) and every host NIC queue (net) is
//     wrapped in a forwarding Queue decorator that times enqueue/dequeue
//     with steady_clock.
//   - Phase spans bracket each construction call, the run and teardown.
//
// Spans and counts stay in memory and are returned to the caller. The
// copy never attaches observability (attachObservability is internal to
// src/core), so it runs with obs off; its telemetry digest must equal the
// untraced run's, which is what shows the decorator is transparent.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/experiment.hpp"

namespace ecnbench {

/// Calls through one wrapped operation and the host time they took,
/// including the cost of the clock reads that bracket each call.
struct OpTimer {
    std::uint64_t calls = 0;
    std::int64_t rawNs = 0;
};

struct Span {
    std::string name;
    std::int64_t startNs = 0;  ///< from the start of the traced pass
    std::int64_t endNs = 0;
};

struct TracedRun {
    std::uint64_t digest = 0;
    bool timedOut = false;
    bool jobFailed = false;

    /// net.build, mapred.build, workloads.build, sim.run, core.teardown.
    std::vector<Span> spans;

    OpTimer aqmEnqueue, aqmDequeue;  ///< switch egress queues
    OpTimer nicEnqueue, nicDequeue;  ///< host NIC queues

    std::uint64_t aqmMarks = 0, aqmEarlyDrops = 0, aqmOverflowDrops = 0;
    std::uint64_t ackEarlyDrops = 0, ackOffered = 0, fastPathHits = 0;
    std::uint64_t nicDrops = 0, packetsDelivered = 0;

    std::uint64_t events = 0, batchDrains = 0, maxBatch = 0;
    std::uint64_t timerChurn = 0, cascades = 0, maxLivePending = 0;

    std::uint64_t connections = 0, segmentsSent = 0, acksSent = 0;
    std::uint64_t retransmits = 0, rtoEvents = 0, synRetries = 0;
    std::uint64_t bytesAcked = 0, bytesSent = 0;  ///< bytesSent includes retransmissions

    std::uint64_t reqIssued = 0, reqCompleted = 0;

    /// Duration of the named span, 0 when absent.
    std::int64_t spanNs(const std::string& name) const;
};

/// Run `cfg` through the instrumented copy of runExperiment's assembly.
/// cfg.obs must be off and cfg.faultSpec empty (the benchmark uses neither).
TracedRun runTraced(const ecnsim::ExperimentConfig& cfg);

/// Median cost of the back-to-back steady_clock pair that brackets every
/// wrapped call: subtracted once per call from its raw time.
double calibrateClockNs();

}  // namespace ecnbench
