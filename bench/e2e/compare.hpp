// ecnbench --compare A.json B.json: per workload and end-to-end metric, both
// medians and quartiles, the change and a verdict against the bound.
#pragma once

#include <string>

namespace ecnbench {

/// Verdict for one metric, A being the parent (the reference) and B the
/// change. `faster`/`slower` when |delta| exceeds both the bound and A's
/// relative IQR; otherwise `unresolved` when A's relative IQR is wider than
/// the bound; otherwise `within noise`.
const char* verdict(double deltaRel, double boundRel, double parentRelIqr, bool higherIsBetter);

/// Print the comparison of two full-run reports (written by --out).
/// Returns 0, 1 when any metric reads `slower`, 2 when a file is unreadable.
int compareReports(const std::string& pathA, const std::string& pathB);

}  // namespace ecnbench
