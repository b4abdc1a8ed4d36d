// Median and quartiles of a sample set, computed the way Python's
// statistics.median and statistics.quantiles(data, n=4) (the default
// "exclusive" method) compute them, so numbers printed here can be checked
// against a script.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

namespace ecnbench {

enum class Estimator { Median, LowerQuartile };

struct Summary {
    double median = 0.0;
    double q1 = 0.0;
    double q3 = 0.0;
    std::size_t n = 0;

    double estimate(Estimator e) const { return e == Estimator::Median ? median : q1; }
};

inline Summary summarize(std::vector<double> v) {
    Summary s;
    s.n = v.size();
    if (v.empty()) return s;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    s.median = n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
    if (n < 2) {
        s.q1 = s.q3 = s.median;
        return s;
    }
    const auto quartile = [&v, n](std::size_t i) {
        const std::size_t m = n + 1;
        std::size_t j = std::clamp<std::size_t>(i * m / 4, 1, n - 1);
        const double delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
        return (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    };
    s.q1 = quartile(1);
    s.q3 = quartile(3);
    return s;
}

}  // namespace ecnbench
