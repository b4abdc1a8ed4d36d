// The metric table: every metric the benchmark reports, with its unit and
// direction, and for end-to-end metrics the regression bound (the share of
// the parent's median by which it may worsen). BENCHMARK.json at the
// repository root lists the same names, units, directions and bounds.
#pragma once

#include <string_view>

#include "stats.hpp"

namespace ecnbench {

struct MetricDef {
    std::string_view name;
    std::string_view unit;
    bool higherIsBetter = false;
    double bound = 0.0;  ///< end-to-end metrics only
    /// The statistic of a run's samples that is reported as its value.
    Estimator estimator = Estimator::Median;
};

/// Measured with tracing off, per workload. Host interference on a shared
/// machine only ever adds time, so wall_s reports the lower quartile of its
/// samples: the steadiest estimate of the code's own cost (README.md,
/// "Noise and bounds").
inline constexpr MetricDef kEndToEnd[] = {
    {"wall_s", "s", false, 0.25, Estimator::LowerQuartile},
    {"setup_s", "s", false, 0.25},
    {"peak_rss_mb", "MiB", false, 0.10},
};

/// From the traced rounds, per workload. Counts are per sample (one batch
/// of the workload's experiments); *_ns are per call; *_ms per experiment.
inline constexpr MetricDef kPerLayer[] = {
    {"aqm.enqueues", "count"},
    {"aqm.dequeues", "count"},
    {"aqm.enqueue_ns", "ns"},
    {"aqm.dequeue_ns", "ns"},
    {"aqm.busy_s", "s"},
    {"aqm.share_pct", "%"},
    {"aqm.marks", "count"},
    {"aqm.early_drops", "count"},
    {"aqm.overflow_drops", "count"},
    {"aqm.ack_early_drop_pct", "%"},
    {"aqm.fastpath_ratio", "ratio", true},
    {"net.nic_enqueues", "count"},
    {"net.nic_enqueue_ns", "ns"},
    {"net.nic_dequeue_ns", "ns"},
    {"net.nic_share_pct", "%"},
    {"net.nic_drops", "count"},
    {"net.packets_delivered", "count"},
    {"net.events_per_packet", "ratio"},
    {"net.build_ms", "ms"},
    {"sim.events", "count"},
    {"sim.events_per_s", "1/s", true},
    {"sim.ns_per_event", "ns"},
    {"sim.events_per_drain", "ratio", true},
    {"sim.max_batch", "count"},
    {"sim.timer_churn", "count"},
    {"sim.cascades", "count"},
    {"sim.max_live_pending", "count"},
    {"run.self_s", "s"},
    {"run.self_pct", "%"},
    {"run.self_ns_per_event", "ns"},
    {"tcp.connections", "count"},
    {"tcp.segments_sent", "count"},
    {"tcp.acks_sent", "count"},
    {"tcp.retransmits", "count"},
    {"tcp.rto_events", "count"},
    {"tcp.syn_retries", "count"},
    {"tcp.goodput_ratio", "ratio", true},
    {"workloads.req_completed", "count", true},
    {"workloads.completion_ratio", "ratio", true},
    {"workloads.build_ms", "ms"},
    {"mapred.build_ms", "ms"},
    {"core.teardown_ms", "ms"},
    {"core.par_wall_s", "s"},
    {"core.par_speedup", "ratio", true},
    {"obs.overhead_pct", "%"},
    {"obs.trace_records", "count"},
    {"obs.trace_dropped", "count"},
    {"obs.metric_samples", "count"},
    {"obs.extra_events", "count"},
    {"obs.prof.link_transmit_pct", "%"},
    {"obs.prof.wire_delivery_pct", "%"},
    {"obs.prof.tcp_timer_pct", "%"},
    {"obs.prof.mapred_control_pct", "%"},
    {"obs.prof.obs_sampling_pct", "%"},
    {"obs.prof.other_pct", "%"},
    {"trace.clock_ns", "ns"},
    {"trace.overhead_pct", "%"},
};

}  // namespace ecnbench
