#ifndef DATAMARAN_PERFBENCH_REPLAY_H_
#define DATAMARAN_PERFBENCH_REPLAY_H_

#include <cstddef>
#include <string>

namespace dmbench {

/// Replays the workload in-process with spans around each layer's public
/// call, checks that it reproduces the tools' templates and record counts
/// (outputs in `dir`), and prints the per-layer metrics as one JSON object.
/// `tool_wall_s` is the untraced tools' wall time, for trace.gap_pct.
/// Returns nonzero when the replay does not reproduce the tools.
int Replay(const std::string& workload, const std::string& dir, int threads,
           double tool_wall_s);

/// Forks a child that allocates and touches `mib` MiB, either all live at
/// once (`linear`, O(n)) or through one reused 1 MiB buffer (O(1)); prints
/// the child's peak RSS in MB (10^6 bytes) as read from wait4's ru_maxrss.
/// The parent first touches `ballast_mib` MiB of its own; the probe must
/// then refuse to fork (exit 1) once that would floor the child's reading.
int RssProbe(size_t mib, bool linear, size_t ballast_mib);

}  // namespace dmbench

#endif  // DATAMARAN_PERFBENCH_REPLAY_H_
