// ecnbench — the repository's end-to-end benchmark.
//
// Times the workloads of workloads.cpp through the public runExperiment /
// runExperimentsParallel entry points (uncached), checks every result
// against the telemetry digests, then times each layer from outside in a
// traced pass (traced.hpp). bench/e2e/README.md explains the metrics.
//
//   ecnbench [--seed N] [--out FILE]
//       Full run: every workload, interleaved round-robin. Peak-RSS
//       children, one warm-up round, 10 timed rounds, then 5 traced
//       rounds. Prints a table; writes the report to FILE.
//   ecnbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//       One workload, timed rounds for about S seconds. The last line of
//       stdout is one JSON object {"correct", "attempted", "failed",
//       "metrics"} carrying the end-to-end metrics (--trace 0) or the
//       per-layer metrics (--trace 1).
//   ecnbench --compare A.json B.json
//       Compare two full-run reports (compare.hpp).
//
// Exit status: 0 ok; 1 a correctness check failed (or --compare found a
// slower metric); 2 usage error.
#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "compare.hpp"
#include "json_writer.hpp"
#include "metrics.hpp"
#include "src/core/parallel.hpp"
#include "src/core/runner.hpp"
#include "src/obs/profiler.hpp"
#include "stats.hpp"
#include "traced.hpp"
#include "workloads.hpp"

using namespace ecnsim;
using namespace ecnbench;

namespace {

using Clock = std::chrono::steady_clock;

/// Set-up leg: runExperiment calls per config per sample, horizon 1 ns.
constexpr int kSetupRepeats = 25;
/// Lower bound on timed rounds in a --workload run, whatever --seconds says.
constexpr int kMinRounds = 3;
/// Timed and traced rounds per workload in a full run.
constexpr int kFullRounds = 10;
constexpr int kFullLayerRounds = 5;

double secondsSince(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// min(nproc, 4): the parallel leg's client count.
int parallelClients() {
    cpu_set_t set;
    int n = 0;
    if (sched_getaffinity(0, sizeof set, &set) == 0) n = CPU_COUNT(&set);
    if (n <= 0) n = static_cast<int>(std::thread::hardware_concurrency());
    return std::clamp(n, 1, 4);
}

/// Correctness ledger of one workload: every checked result counts as
/// attempted; fail_rate = failed / attempted.
struct Ledger {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;  ///< the first few, for the report

    void check(bool ok, const std::string& what) {
        ++attempted;
        if (ok) return;
        ++failed;
        if (failures.size() < 16) failures.push_back(what);
    }
};

std::string hex(std::uint64_t v) {
    char buf[24];
    std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(v));
    return buf;
}

class WorkloadBench {
public:
    WorkloadBench(Workload w, int clients) : w_(std::move(w)), clients_(clients) {
        twin_ = withObs(w_.configs, !w_.observed);
        off_ = w_.observed ? twin_ : w_.configs;
        setupConfigs_ = w_.configs;
        for (auto& cfg : setupConfigs_) cfg.horizon = Time::nanoseconds(1);
    }

    const Workload& workload() const { return w_; }
    const Ledger& ledger() const { return ledger_; }
    const ModelCheck& model() const { return model_; }
    bool pinChecked() const { return pinChecked_; }
    std::uint64_t digest() const { return digest_; }
    const std::vector<Span>& lastSpans() const { return lastSpans_; }

    /// Step 1: a forked child runs one serial pass and reports its peak
    /// RSS. Must run before this process starts any thread.
    void measurePeakRss() {
        std::fflush(nullptr);
        int fds[2];
        if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
        const pid_t pid = fork();
        if (pid < 0) throw std::runtime_error("fork failed");
        if (pid == 0) {
            close(fds[0]);
            ChildReport rep{};
            try {
                std::vector<ExperimentResult> rs;
                for (const auto& cfg : w_.configs) rs.push_back(runExperiment(cfg));
                rep.digest = combinedDigest(rs);
                rep.ok = 1;
            } catch (...) {
                rep.ok = 0;
            }
            struct rusage ru {};
            getrusage(RUSAGE_SELF, &ru);
            rep.maxRssKb = ru.ru_maxrss;
            const ssize_t n = write(fds[1], &rep, sizeof rep);
            _exit(n == static_cast<ssize_t>(sizeof rep) ? 0 : 1);
        }
        close(fds[1]);
        ChildReport rep{};
        std::size_t got = 0;
        while (got < sizeof rep) {
            const ssize_t n = read(fds[0], reinterpret_cast<char*>(&rep) + got, sizeof rep - got);
            if (n <= 0) break;
            got += static_cast<std::size_t>(n);
        }
        close(fds[0]);
        int status = 0;
        waitpid(pid, &status, 0);
        const bool ok = got == sizeof rep && rep.ok == 1 && WIFEXITED(status) &&
                        WEXITSTATUS(status) == 0;
        ledger_.check(ok, w_.name + " peak-RSS child failed");
        peakRssMb_ = static_cast<double>(rep.maxRssKb) / 1024.0;
        childDigest_ = ok ? rep.digest : 0;
    }

    /// Step 2: one discarded serial pass that also fixes the reference
    /// digest of every config and runs the pin and model checks. False
    /// when a config could not run at all.
    bool warmUp() {
        const Leg leg = runSerial(w_.configs);
        bool ran = true;
        for (std::size_t i = 0; i < leg.results.size(); ++i) {
            const ExperimentResult& r = leg.results[i];
            ran = ran && !leg.threw[i];
            ledger_.check(!leg.threw[i] && !r.timedOut && !r.jobFailed,
                          w_.configs[i].name + " warm-up: " + outcome(r, leg.threw[i]));
            ref_.push_back(r.telemetryDigest);
        }
        digest_ = combinedDigest(leg.results);
        if (childDigest_ != 0) {
            ledger_.check(childDigest_ == digest_, w_.name + " peak-RSS child digest " +
                                                       hex(childDigest_) + " != " + hex(digest_));
        }
        pinChecked_ = w_.configs.front().seed == kDefaultSeed;
        if (pinChecked_) {
            ledger_.check(digest_ == w_.pinnedDigest, w_.name + " digest " + hex(digest_) +
                                                          " != pinned " + hex(w_.pinnedDigest));
        }
        model_ = checkModel(w_, leg.results);
        for (const auto& f : model_.failures) ledger_.check(false, f);
        return ran;
    }

    /// Step 3: one serial and one set-up sample.
    void e2eRound() {
        const Leg serial = runSerial(w_.configs);
        verify(serial.results, serial.threw, "serial");
        wall_.push_back(serial.seconds);

        std::vector<double> perRun;
        for (int rep = 0; rep < kSetupRepeats; ++rep) {
            for (const auto& cfg : setupConfigs_) {
                const auto t0 = Clock::now();
                bool ok = true;
                try {
                    ok = !runExperiment(cfg).jobFailed;
                } catch (const std::exception&) {
                    ok = false;
                }
                perRun.push_back(secondsSince(t0));
                ledger_.check(ok, cfg.name + " set-up run failed");
            }
        }
        setup_.push_back(summarize(std::move(perRun)).median);
    }

    /// Step 4: the workload untraced, its obs twin untraced, the traced
    /// copy on the obs-off batch, and the parallel leg (min(nproc, 4)
    /// clients); then the per-layer metrics of this round.
    void layerRound(double clockNs) {
        const Leg own = runSerial(w_.configs);
        verify(own.results, own.threw, "serial");
        const Leg twin = runSerial(twin_);
        verify(twin.results, twin.threw, "obs twin");

        std::vector<TracedRun> traced;
        const auto tt = Clock::now();
        for (const auto& cfg : off_) {
            try {
                traced.push_back(runTraced(cfg));
            } catch (const std::exception& e) {
                ledger_.check(false, cfg.name + " traced: " + e.what());
                return;
            }
        }
        const double tracedSec = secondsSince(tt);
        for (std::size_t i = 0; i < traced.size(); ++i) {
            const TracedRun& t = traced[i];
            ledger_.check(!t.timedOut && !t.jobFailed && t.digest == ref_[i],
                          off_[i].name + " traced: digest " + hex(t.digest) + " vs " +
                              hex(ref_[i]) + (t.timedOut ? ", timed out" : "") +
                              (t.jobFailed ? ", job failed" : ""));
        }
        lastSpans_ = traced.front().spans;

        const auto tp = Clock::now();
        const auto par = runExperimentsParallel(w_.configs, clients_, /*useCache=*/false);
        const double parSec = secondsSince(tp);
        verify(par, std::vector<bool>(par.size(), false), "parallel");

        const Leg& offLeg = w_.observed ? twin : own;
        const Leg& fullLeg = w_.observed ? own : twin;
        for (const auto& [name, v] :
             layerMetrics(own, offLeg, fullLeg, traced, tracedSec, parSec, clockNs)) {
            layers_[name].push_back(v);
        }
    }

    double peakRssMb() const { return peakRssMb_; }

    /// End-to-end summaries in kEndToEnd order.
    std::vector<Summary> endToEnd() const {
        Summary rss;
        rss.median = rss.q1 = rss.q3 = peakRssMb_;
        rss.n = 1;
        return {summarize(wall_), summarize(setup_), rss};
    }

    /// Per-layer summaries in kPerLayer order (over the traced rounds; all
    /// empty when no traced round completed).
    std::vector<Summary> perLayer() const {
        std::vector<Summary> out;
        for (const MetricDef& def : kPerLayer) {
            const auto it = layers_.find(std::string(def.name));
            if (layers_.empty()) {
                out.emplace_back();
            } else if (it == layers_.end()) {
                throw std::logic_error("per-layer metric not computed: " + std::string(def.name));
            } else {
                out.push_back(summarize(it->second));
            }
        }
        return out;
    }

private:
    struct ChildReport {
        long maxRssKb;
        std::uint64_t digest;
        int ok;
    };

    struct Leg {
        std::vector<ExperimentResult> results;
        std::vector<bool> threw;
        double seconds = 0.0;
    };

    static Leg runSerial(const std::vector<ExperimentConfig>& configs) {
        Leg leg;
        leg.results.resize(configs.size());
        leg.threw.assign(configs.size(), false);
        const auto t0 = Clock::now();
        for (std::size_t i = 0; i < configs.size(); ++i) {
            try {
                leg.results[i] = runExperiment(configs[i]);
            } catch (const std::exception& e) {
                leg.threw[i] = true;
                leg.results[i].jobError = e.what();
            }
        }
        leg.seconds = secondsSince(t0);
        return leg;
    }

    static std::string outcome(const ExperimentResult& r, bool threw) {
        if (threw) return "exception: " + r.jobError;
        if (r.timedOut) return "timed out";
        if (r.jobFailed) return "job failed: " + r.jobError;
        return "ok";
    }

    /// Same digest as the warm-up for every config, and no failure.
    void verify(const std::vector<ExperimentResult>& rs, const std::vector<bool>& threw,
                const char* leg) {
        for (std::size_t i = 0; i < rs.size(); ++i) {
            const ExperimentResult& r = rs[i];
            const bool ok = !threw[i] && !r.timedOut && !r.jobFailed && r.telemetryDigest == ref_[i];
            ledger_.check(ok, w_.configs[i].name + " " + leg + ": " + outcome(r, threw[i]) +
                                  ", digest " + hex(r.telemetryDigest) + " vs " + hex(ref_[i]));
        }
    }

    std::vector<std::pair<std::string, double>> layerMetrics(
        const Leg& own, const Leg& off, const Leg& full, const std::vector<TracedRun>& traced,
        double tracedSec, double parSec, double clockNs) const {
        const double n = static_cast<double>(traced.size());
        OpTimer aE, aD, nE, nD;
        double runNs = 0, netBuild = 0, mapredBuild = 0, wlBuild = 0, teardown = 0;
        std::uint64_t marks = 0, early = 0, overflow = 0, ackDrop = 0, ackOff = 0, fast = 0;
        std::uint64_t nicDrops = 0, conns = 0, segs = 0, acks = 0, retx = 0, rtos = 0, synr = 0;
        std::uint64_t acked = 0, sent = 0;
        for (const TracedRun& t : traced) {
            for (auto [sum, op] : {std::pair{&aE, &t.aqmEnqueue}, std::pair{&aD, &t.aqmDequeue},
                                   std::pair{&nE, &t.nicEnqueue}, std::pair{&nD, &t.nicDequeue}}) {
                sum->calls += op->calls;
                sum->rawNs += op->rawNs;
            }
            runNs += static_cast<double>(t.spanNs("sim.run"));
            netBuild += static_cast<double>(t.spanNs("net.build"));
            mapredBuild += static_cast<double>(t.spanNs("mapred.build"));
            wlBuild += static_cast<double>(t.spanNs("workloads.build"));
            teardown += static_cast<double>(t.spanNs("core.teardown"));
            marks += t.aqmMarks;
            early += t.aqmEarlyDrops;
            overflow += t.aqmOverflowDrops;
            ackDrop += t.ackEarlyDrops;
            ackOff += t.ackOffered;
            fast += t.fastPathHits;
            nicDrops += t.nicDrops;
            conns += t.connections;
            segs += t.segmentsSent;
            acks += t.acksSent;
            retx += t.retransmits;
            rtos += t.rtoEvents;
            synr += t.synRetries;
            acked += t.bytesAcked;
            sent += t.bytesSent;
        }
        // Each wrapped call reads the clock twice: about one read lands
        // inside the timed interval and one outside it.
        const auto net = [clockNs](const OpTimer& o) {
            return static_cast<double>(o.rawNs) - clockNs * static_cast<double>(o.calls);
        };
        const auto perCall = [&net](const OpTimer& o) {
            return o.calls ? net(o) / static_cast<double>(o.calls) : 0.0;
        };
        const double calls = static_cast<double>(aE.calls + aD.calls + nE.calls + nD.calls);
        const double runUntraced = runNs - 2.0 * clockNs * calls;
        const double aqmNs = net(aE) + net(aD);
        const double nicNs = net(nE) + net(nD);
        const double selfNs = runUntraced - aqmNs - nicNs;

        std::uint64_t events = 0, drains = 0, maxBatch = 0, churn = 0, cascades = 0, maxLive = 0;
        std::uint64_t delivered = 0, issued = 0, completed = 0, finished = 0;
        for (const auto& r : own.results) {
            events += r.eventsExecuted;
            drains += r.batchDrains;
            maxBatch = std::max(maxBatch, r.maxBatchSize);
            churn += r.cancelledEvents;
            cascades += r.cascades;
            maxLive = std::max(maxLive, r.heapMaxDepth);
            delivered += r.packetsDelivered;
            issued += r.reqIssued;
            completed += r.reqCompleted;
            finished += r.timedOut ? 0 : 1;
        }
        std::uint64_t offEvents = 0, fullEvents = 0, records = 0, dropped = 0, samples = 0;
        for (const auto& r : off.results) offEvents += r.eventsExecuted;
        double profWallMs = 0.0;
        std::map<std::string, double> kindMs;
        for (const auto& r : full.results) {
            fullEvents += r.eventsExecuted;
            records += r.traceRecords;
            dropped += r.traceDroppedEvents;
            samples += r.metricSamples;
            profWallMs += r.obsProfile.wallSec * 1e3;
            for (const auto& k : r.obsProfile.kinds) kindMs[k.name] += k.wallMs;
        }

        const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
        const auto ratio = [](double a, double b) { return b != 0.0 ? a / b : 0.0; };
        std::vector<std::pair<std::string, double>> m = {
            {"aqm.enqueues", d(aE.calls)},
            {"aqm.dequeues", d(aD.calls)},
            {"aqm.enqueue_ns", perCall(aE)},
            {"aqm.dequeue_ns", perCall(aD)},
            {"aqm.busy_s", aqmNs / 1e9},
            {"aqm.share_pct", 100.0 * ratio(aqmNs, runUntraced)},
            {"aqm.marks", d(marks)},
            {"aqm.early_drops", d(early)},
            {"aqm.overflow_drops", d(overflow)},
            {"aqm.ack_early_drop_pct", 100.0 * ratio(d(ackDrop), d(ackOff))},
            {"aqm.fastpath_ratio", ratio(d(fast), d(aE.calls))},
            {"net.nic_enqueues", d(nE.calls)},
            {"net.nic_enqueue_ns", perCall(nE)},
            {"net.nic_dequeue_ns", perCall(nD)},
            {"net.nic_share_pct", 100.0 * ratio(nicNs, runUntraced)},
            {"net.nic_drops", d(nicDrops)},
            {"net.packets_delivered", d(delivered)},
            {"net.events_per_packet", ratio(d(events), d(delivered))},
            {"net.build_ms", netBuild / n / 1e6},
            {"sim.events", d(events)},
            {"sim.events_per_s", ratio(d(events), own.seconds)},
            {"sim.ns_per_event", ratio(own.seconds * 1e9, d(events))},
            {"sim.events_per_drain", ratio(d(events), d(drains))},
            {"sim.max_batch", d(maxBatch)},
            {"sim.timer_churn", d(churn)},
            {"sim.cascades", d(cascades)},
            {"sim.max_live_pending", d(maxLive)},
            {"run.self_s", selfNs / 1e9},
            {"run.self_pct", 100.0 * ratio(selfNs, runUntraced)},
            {"run.self_ns_per_event", ratio(selfNs, d(events))},
            {"tcp.connections", d(conns)},
            {"tcp.segments_sent", d(segs)},
            {"tcp.acks_sent", d(acks)},
            {"tcp.retransmits", d(retx)},
            {"tcp.rto_events", d(rtos)},
            {"tcp.syn_retries", d(synr)},
            {"tcp.goodput_ratio", ratio(d(acked), d(sent))},
            {"workloads.req_completed", d(completed)},
            // Requests completed per request issued; MapReduce-only
            // workloads issue none, so there it is experiments finished.
            {"workloads.completion_ratio",
             issued ? ratio(d(completed), d(issued)) : ratio(d(finished), n)},
            {"workloads.build_ms", wlBuild / n / 1e6},
            {"mapred.build_ms", mapredBuild / n / 1e6},
            {"core.teardown_ms", teardown / n / 1e6},
            {"core.par_wall_s", parSec},
            {"core.par_speedup", ratio(own.seconds, parSec)},
            {"obs.overhead_pct", 100.0 * (ratio(full.seconds, off.seconds) - 1.0)},
            {"obs.trace_records", d(records)},
            {"obs.trace_dropped", d(dropped)},
            {"obs.metric_samples", d(samples)},
            {"obs.extra_events", d(fullEvents) - d(offEvents)},
            {"trace.clock_ns", clockNs},
            {"trace.overhead_pct", 100.0 * (ratio(tracedSec, off.seconds) - 1.0)},
        };
        for (std::size_t k = 0; k < kNumProfileKinds; ++k) {
            std::string kind(profileKindName(static_cast<ProfileKind>(k)));
            const double ms = kindMs.count(kind) ? kindMs.at(kind) : 0.0;
            std::replace(kind.begin(), kind.end(), '-', '_');
            m.emplace_back("obs.prof." + kind + "_pct", 100.0 * ratio(ms, profWallMs));
        }
        return m;
    }

    Workload w_;
    int clients_;
    std::vector<ExperimentConfig> twin_;  ///< the batch with obs flipped
    std::vector<ExperimentConfig> off_;   ///< the batch with obs off
    std::vector<ExperimentConfig> setupConfigs_;
    std::vector<std::uint64_t> ref_;  ///< per-config digest from the warm-up
    std::uint64_t digest_ = 0;
    std::uint64_t childDigest_ = 0;
    bool pinChecked_ = false;
    Ledger ledger_;
    ModelCheck model_;
    double peakRssMb_ = 0.0;
    std::vector<double> wall_, setup_;
    std::map<std::string, std::vector<double>> layers_;
    std::vector<Span> lastSpans_;
};

struct Options {
    std::string workload;  ///< empty: full run
    std::uint64_t seed = kDefaultSeed;
    double seconds = 20.0;
    bool trace = false;
    std::string out;
    std::vector<std::string> compare;
};

int usage() {
    std::fprintf(stderr,
                 "usage: ecnbench [--seed N] [--out FILE]\n"
                 "       ecnbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n"
                 "       ecnbench --compare A.json B.json\n"
                 "workloads:");
    for (const auto& n : workloadNames()) std::fprintf(stderr, " %s", n.c_str());
    std::fprintf(stderr, "\n");
    return 2;
}

bool parseArgs(int argc, char** argv, Options& o) {
    const auto number = [](const char* s, double& out) {
        char* end = nullptr;
        out = std::strtod(s, &end);
        return end != s && *end == '\0';
    };
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc) return false;
        const char* v = argv[++i];
        double x = 0.0;
        if (a == "--workload") {
            o.workload = v;
        } else if (a == "--seed" && number(v, x) && x >= 0 && x < 1e15 && x == std::floor(x)) {
            o.seed = static_cast<std::uint64_t>(x);
        } else if (a == "--seconds" && number(v, x) && x > 0 && x <= 600) {
            o.seconds = x;
        } else if (a == "--trace" && (std::string(v) == "0" || std::string(v) == "1")) {
            o.trace = std::string(v) == "1";
        } else if (a == "--out") {
            o.out = v;
        } else if (a == "--compare" && i + 1 < argc) {
            o.compare = {v, argv[++i]};
        } else {
            return false;
        }
    }
    return true;
}

void printSummaryLine(const WorkloadBench& b) {
    const Ledger& l = b.ledger();
    std::fprintf(stderr, "[ecnbench] %s: digest %s (%s), %llu/%llu checks failed\n",
                 b.workload().name.c_str(), hex(b.digest()).c_str(),
                 b.pinChecked() ? "pinned" : "pin not checked: seed != 1, cross-leg checks only",
                 static_cast<unsigned long long>(l.failed),
                 static_cast<unsigned long long>(l.attempted));
    for (const auto& f : l.failures) std::fprintf(stderr, "[ecnbench]   FAIL %s\n", f.c_str());
    for (const auto& [k, v] : b.model().values) {
        std::fprintf(stderr, "[ecnbench]   %s = %.6g\n", k.c_str(), v);
    }
}

/// --workload: one workload, rounds until --seconds is used up.
int runOne(const Options& o) {
    Workload w;
    if (!makeWorkload(o.workload, o.seed, w)) return usage();
    WorkloadBench b(std::move(w), parallelClients());
    if (!o.trace) b.measurePeakRss();
    const bool ran = b.warmUp();
    const double clockNs = o.trace ? calibrateClockNs() : 0.0;

    const auto start = Clock::now();
    for (int rounds = 0; ran;) {
        if (o.trace) {
            b.layerRound(clockNs);
        } else {
            b.e2eRound();
        }
        ++rounds;
        const double elapsed = secondsSince(start);
        if (rounds >= kMinRounds && elapsed + elapsed / rounds > o.seconds) break;
    }
    printSummaryLine(b);

    const Ledger& l = b.ledger();
    const bool correct = ran && l.failed == 0;
    JsonWriter j(std::cout, /*pretty=*/false);
    j.beginObject();
    j.field("correct", correct);
    j.field("attempted", l.attempted);
    j.field("failed", l.failed);
    j.key("metrics");
    j.beginObject();
    if (ran) {
        const auto emit = [&j](const MetricDef& def, const Summary& s) {
            j.key(def.name);
            j.beginObject();
            j.field("value", s.estimate(def.estimator));
            j.field("unit", def.unit);
            j.endObject();
        };
        if (o.trace) {
            const auto layers = b.perLayer();
            for (std::size_t i = 0; i < layers.size(); ++i) emit(kPerLayer[i], layers[i]);
        } else {
            const auto e2e = b.endToEnd();
            for (std::size_t i = 0; i < e2e.size(); ++i) emit(kEndToEnd[i], e2e[i]);
        }
    }
    j.endObject();
    j.endObject();
    std::cout << std::endl;
    return correct ? 0 : 1;
}

void writeSummary(JsonWriter& j, const MetricDef& def, const Summary& s) {
    j.key(def.name);
    j.beginObject();
    j.field("unit", def.unit);
    j.field("value", s.estimate(def.estimator));
    j.field("median", s.median);
    j.field("q1", s.q1);
    j.field("q3", s.q3);
    j.field("n", static_cast<std::uint64_t>(s.n));
    j.endObject();
}

/// Full run: every workload, interleaved round-robin.
int runFull(const Options& o) {
    std::vector<WorkloadBench> benches;
    const int clients = parallelClients();
    for (const auto& name : workloadNames()) {
        Workload w;
        makeWorkload(name, o.seed, w);
        benches.emplace_back(std::move(w), clients);
    }
    const auto start = Clock::now();
    for (auto& b : benches) b.measurePeakRss();
    bool ran = true;
    for (auto& b : benches) ran = b.warmUp() && ran;
    if (ran) {
        for (int r = 0; r < kFullRounds; ++r) {
            for (auto& b : benches) b.e2eRound();
            std::fprintf(stderr, "[ecnbench] round %d/%d done (%.0f s)\n", r + 1, kFullRounds,
                         secondsSince(start));
        }
    }
    const double clockNs = calibrateClockNs();
    if (ran) {
        for (int r = 0; r < kFullLayerRounds; ++r) {
            for (auto& b : benches) b.layerRound(clockNs);
        }
    }
    const double totalSec = secondsSince(start);

    std::uint64_t attempted = 0, failed = 0;
    for (const auto& b : benches) {
        printSummaryLine(b);
        attempted += b.ledger().attempted;
        failed += b.ledger().failed;
    }
    const bool correct = ran && failed == 0;

    // Human-readable table.
    std::printf("ecnbench seed %llu, %d timed rounds, %d parallel clients, %.0f s\n",
                static_cast<unsigned long long>(o.seed), kFullRounds, clients, totalSec);
    for (const auto& b : benches) {
        const Ledger& l = b.ledger();
        std::printf("\n%s  digest %s%s  fail_rate %.4g (%llu/%llu)\n", b.workload().name.c_str(),
                    hex(b.digest()).c_str(), b.pinChecked() ? " (pinned)" : "",
                    l.attempted ? static_cast<double>(l.failed) / static_cast<double>(l.attempted)
                                : 0.0,
                    static_cast<unsigned long long>(l.failed),
                    static_cast<unsigned long long>(l.attempted));
        if (!ran) continue;
        const auto row = [](const MetricDef& def, const Summary& s) {
            std::printf("  %-30s %14.6g %-5s [median %.6g, q1 %.6g, q3 %.6g] n=%zu\n",
                        std::string(def.name).c_str(), s.estimate(def.estimator),
                        std::string(def.unit).c_str(), s.median, s.q1, s.q3, s.n);
        };
        const auto e2e = b.endToEnd();
        for (std::size_t i = 0; i < e2e.size(); ++i) row(kEndToEnd[i], e2e[i]);
        for (const auto& [k, v] : b.model().values) std::printf("  %-30s %14.6g\n", k.c_str(), v);
        const auto layers = b.perLayer();
        for (std::size_t i = 0; i < layers.size(); ++i) row(kPerLayer[i], layers[i]);
    }
    std::printf("\ncorrect %s, %llu/%llu checks failed\n", correct ? "true" : "false",
                static_cast<unsigned long long>(failed), static_cast<unsigned long long>(attempted));

    if (!o.out.empty()) {
        std::ofstream os(o.out, std::ios::trunc);
        if (!os) {
            std::fprintf(stderr, "ecnbench: cannot write %s\n", o.out.c_str());
            return 2;
        }
        JsonWriter j(os, /*pretty=*/true);
        j.beginObject();
        j.field("tool", "ecnbench");
        j.field("seed", o.seed);
        j.field("rounds", static_cast<std::uint64_t>(kFullRounds));
        j.field("layer_rounds", static_cast<std::uint64_t>(kFullLayerRounds));
        j.field("parallel_clients", static_cast<std::uint64_t>(clients));
        j.field("total_s", totalSec);
        j.field("correct", correct);
        j.field("attempted", attempted);
        j.field("failed", failed);
        j.key("bounds");
        j.beginObject();
        for (const MetricDef& def : kEndToEnd) j.field(def.name, def.bound);
        j.endObject();
        j.key("workloads");
        j.beginObject();
        for (const auto& b : benches) {
            const Ledger& l = b.ledger();
            j.key(b.workload().name);
            j.beginObject();
            j.field("configs", static_cast<std::uint64_t>(b.workload().configs.size()));
            j.field("digest", hex(b.digest()));
            j.field("pinned_digest", hex(b.workload().pinnedDigest));
            j.field("pin_checked", b.pinChecked());
            j.field("attempted", l.attempted);
            j.field("failed", l.failed);
            j.field("fail_rate", l.attempted ? static_cast<double>(l.failed) /
                                                   static_cast<double>(l.attempted)
                                             : 0.0);
            j.key("failures");
            j.beginArray();
            for (const auto& f : l.failures) j.value(f);
            j.endArray();
            j.key("model");
            j.beginObject();
            for (const auto& [k, v] : b.model().values) j.field(k, v);
            j.endObject();
            if (ran) {
                j.key("e2e");
                j.beginObject();
                const auto e2e = b.endToEnd();
                for (std::size_t i = 0; i < e2e.size(); ++i) writeSummary(j, kEndToEnd[i], e2e[i]);
                j.endObject();
                j.key("layers");
                j.beginObject();
                const auto layers = b.perLayer();
                for (std::size_t i = 0; i < layers.size(); ++i) writeSummary(j, kPerLayer[i], layers[i]);
                j.endObject();
                j.key("spans");
                j.beginArray();
                for (const Span& s : b.lastSpans()) {
                    j.beginObject();
                    j.field("name", s.name);
                    j.field("start_ns", static_cast<std::uint64_t>(s.startNs));
                    j.field("end_ns", static_cast<std::uint64_t>(s.endNs));
                    j.endObject();
                }
                j.endArray();
            }
            j.endObject();
        }
        j.endObject();
        j.endObject();
        os << '\n';
    }
    return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    Options o;
    if (!parseArgs(argc, argv, o)) return usage();
    if (!o.compare.empty()) return compareReports(o.compare[0], o.compare[1]);
    // Checking would change what is measured; configs set it off too.
    setGlobalInvariantMode(InvariantMode::Off);
    try {
        return o.workload.empty() ? runFull(o) : runOne(o);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "ecnbench: %s\n", e.what());
        return 1;
    }
}
