#include "compare.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string_view>
#include <utility>
#include <vector>

#include "metrics.hpp"

namespace ecnbench {

namespace {

/// Just enough JSON to read back the reports this tool writes.
struct Json {
    enum class Kind { Null, Bool, Number, String, Array, Object };
    Kind kind = Kind::Null;
    double number = 0.0;
    std::string text;
    std::vector<Json> items;
    std::vector<std::pair<std::string, Json>> members;

    const Json* get(std::string_view key) const {
        for (const auto& [k, v] : members) {
            if (k == key) return &v;
        }
        return nullptr;
    }
};

class Parser {
public:
    explicit Parser(std::string_view s) : s_(s) {}

    bool parseDocument(Json& out) {
        if (!value(out, 0)) return false;
        skipSpace();
        return pos_ == s_.size();
    }

private:
    static constexpr int kMaxDepth = 64;

    void skipSpace() {
        while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
                                    s_[pos_] == '\r')) {
            ++pos_;
        }
    }

    bool literal(std::string_view word) {
        if (s_.substr(pos_, word.size()) != word) return false;
        pos_ += word.size();
        return true;
    }

    bool string(std::string& out) {
        if (pos_ >= s_.size() || s_[pos_] != '"') return false;
        ++pos_;
        while (pos_ < s_.size() && s_[pos_] != '"') {
            char c = s_[pos_++];
            if (c == '\\') {
                if (pos_ >= s_.size()) return false;
                c = s_[pos_++];
                if (c == 'n') c = '\n';
                else if (c == 't') c = '\t';
                else if (c == 'u') return false;  // never written by this tool
            }
            out.push_back(c);
        }
        if (pos_ >= s_.size()) return false;
        ++pos_;
        return true;
    }

    bool value(Json& out, int depth) {
        if (depth > kMaxDepth) return false;
        skipSpace();
        if (pos_ >= s_.size()) return false;
        const char c = s_[pos_];
        if (c == '{') {
            out.kind = Json::Kind::Object;
            ++pos_;
            skipSpace();
            if (pos_ < s_.size() && s_[pos_] == '}') return ++pos_, true;
            while (true) {
                std::string key;
                skipSpace();
                if (!string(key)) return false;
                skipSpace();
                if (pos_ >= s_.size() || s_[pos_++] != ':') return false;
                Json v;
                if (!value(v, depth + 1)) return false;
                out.members.emplace_back(std::move(key), std::move(v));
                skipSpace();
                if (pos_ < s_.size() && s_[pos_] == ',') {
                    ++pos_;
                    continue;
                }
                return pos_ < s_.size() && s_[pos_++] == '}';
            }
        }
        if (c == '[') {
            out.kind = Json::Kind::Array;
            ++pos_;
            skipSpace();
            if (pos_ < s_.size() && s_[pos_] == ']') return ++pos_, true;
            while (true) {
                Json v;
                if (!value(v, depth + 1)) return false;
                out.items.push_back(std::move(v));
                skipSpace();
                if (pos_ < s_.size() && s_[pos_] == ',') {
                    ++pos_;
                    continue;
                }
                return pos_ < s_.size() && s_[pos_++] == ']';
            }
        }
        if (c == '"') {
            out.kind = Json::Kind::String;
            return string(out.text);
        }
        if (literal("true")) {
            out.kind = Json::Kind::Bool;
            out.number = 1.0;
            return true;
        }
        if (literal("false")) {
            out.kind = Json::Kind::Bool;
            return true;
        }
        if (literal("null")) return true;
        const std::string num(s_.substr(pos_, 64));
        char* end = nullptr;
        out.number = std::strtod(num.c_str(), &end);
        if (end == num.c_str()) return false;
        out.kind = Json::Kind::Number;
        pos_ += static_cast<std::size_t>(end - num.c_str());
        return true;
    }

    std::string_view s_;
    std::size_t pos_ = 0;
};

bool load(const std::string& path, Json& out) {
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "ecnbench: cannot read %s\n", path.c_str());
        return false;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();
    if (!Parser(text).parseDocument(out) || out.kind != Json::Kind::Object ||
        out.get("workloads") == nullptr) {
        std::fprintf(stderr, "ecnbench: %s is not an ecnbench report\n", path.c_str());
        return false;
    }
    return true;
}

struct Stat {
    double median = 0.0, q1 = 0.0, q3 = 0.0;
    int n = 0;
};

bool readStat(const Json& report, const std::string& workload, std::string_view metric,
              Stat& out) {
    const Json* w = report.get("workloads")->get(workload);
    const Json* e2e = w ? w->get("e2e") : nullptr;
    const Json* m = e2e ? e2e->get(metric) : nullptr;
    if (m == nullptr) return false;
    const Json* med = m->get("median");
    const Json* q1 = m->get("q1");
    const Json* q3 = m->get("q3");
    const Json* n = m->get("n");
    if (!med || !q1 || !q3 || !n) return false;
    out = {med->number, q1->number, q3->number, static_cast<int>(n->number)};
    return true;
}

}  // namespace

const char* verdict(double deltaRel, double boundRel, double parentRelIqr, bool higherIsBetter) {
    if (std::fabs(deltaRel) > boundRel && std::fabs(deltaRel) > parentRelIqr) {
        return (deltaRel > 0.0) == higherIsBetter ? "faster" : "slower";
    }
    return parentRelIqr > boundRel ? "unresolved" : "within noise";
}

int compareReports(const std::string& pathA, const std::string& pathB) {
    Json a, b;
    if (!load(pathA, a) || !load(pathB, b)) return 2;
    const auto seedOf = [](const Json& r) {
        const Json* s = r.get("seed");
        return s ? static_cast<long long>(s->number) : -1LL;
    };
    std::printf("A (parent): %s  seed %lld\nB (change): %s  seed %lld\n", pathA.c_str(),
                seedOf(a), pathB.c_str(), seedOf(b));
    std::printf("verdict: faster/slower when |delta| > bound and > A's IQR/median; "
                "unresolved when A's IQR/median > bound; otherwise within noise\n");

    int slower = 0;
    for (const auto& [workload, unused] : a.get("workloads")->members) {
        (void)unused;
        std::printf("\n%s\n  %-12s %-4s %-42s %-42s %8s %6s %7s  %s\n", workload.c_str(),
                    "metric", "unit", "A median [q1, q3] n", "B median [q1, q3] n", "delta%",
                    "bound%", "A iqr%", "verdict");
        for (const MetricDef& def : kEndToEnd) {
            Stat sa, sb;
            if (!readStat(a, workload, def.name, sa) || !readStat(b, workload, def.name, sb)) {
                std::printf("  %-12.*s missing from one report\n", static_cast<int>(def.name.size()),
                            def.name.data());
                continue;
            }
            const double delta = sa.median != 0.0 ? (sb.median - sa.median) / sa.median : 0.0;
            const double iqr = sa.median != 0.0 ? (sa.q3 - sa.q1) / sa.median : 0.0;
            const char* v = verdict(delta, def.bound, iqr, def.higherIsBetter);
            if (std::string_view(v) == "slower") ++slower;
            char ca[64], cb[64];
            std::snprintf(ca, sizeof ca, "%.6g [%.6g, %.6g] %d", sa.median, sa.q1, sa.q3, sa.n);
            std::snprintf(cb, sizeof cb, "%.6g [%.6g, %.6g] %d", sb.median, sb.q1, sb.q3, sb.n);
            std::printf("  %-12.*s %-4.*s %-42s %-42s %+8.2f %6.1f %7.2f  %s\n",
                        static_cast<int>(def.name.size()), def.name.data(),
                        static_cast<int>(def.unit.size()), def.unit.data(), ca, cb, 100.0 * delta,
                        100.0 * def.bound, 100.0 * iqr, v);
        }
    }
    return slower > 0 ? 1 : 0;
}

}  // namespace ecnbench
