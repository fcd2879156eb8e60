#ifndef DATAMARAN_PERFBENCH_CHECK_H_
#define DATAMARAN_PERFBENCH_CHECK_H_

#include <cstdint>
#include <string>
#include <vector>

namespace dmbench {

/// One checked operation: a tool invocation on one input file (one file of
/// a crawl, the batch file, the stream).
struct CheckOp {
  std::string command;  ///< "cold" (first invocation) or "warm" (second)
  std::string file;     ///< the input file, relative to the workload dir
  std::string reason;   ///< why it failed; empty when ok
  /// The operation failed the ground-truth criterion and nothing else.
  bool criterion_only = false;
  bool ok() const { return reason.empty(); }
};

struct CheckReport {
  std::vector<CheckOp> ops;
  /// Files whose warm (catalog-hit) result differs from the cold one.
  std::vector<std::string> mismatch_files;
};

/// Checks the first repetition's outputs in the workload directory `dir`
/// against ground truth regenerated from `seed`.
CheckReport CheckWorkload(const std::string& workload, uint64_t seed,
                          const std::string& dir, int threads);

/// {"attempted", "failed", "failures": [...], "mismatch_files": [...]},
/// where each failure is {"command", "file", "kind", "reason"} and kind is
/// "criterion" for a ground-truth criterion miss alone, else "other".
std::string CheckReportJson(const CheckReport& report);

}  // namespace dmbench

#endif  // DATAMARAN_PERFBENCH_CHECK_H_
