#ifndef DATAMARAN_PERFBENCH_WORKLOADS_H_
#define DATAMARAN_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/dataset.h"
#include "core/summary.h"
#include "datagen/spec.h"
#include "evalharness/criterion.h"
#include "extraction/extractor.h"
#include "template/catalog.h"
#include "template/template.h"
#include "util/status.h"

/// The benchmark's three workloads, generated from src/datagen with ground
/// truth, and the helpers shared by the ground-truth check and the traced
/// replay. The work directory of a workload holds its inputs and the
/// outputs of the first timed repetition of each tool invocation, under
/// fixed names: `cold.*` for the first invocation (the batch run, the cold
/// crawl, the --follow run) and `warm.*` for the second (the catalog-hit
/// re-run or re-crawl).

namespace dmbench {

inline constexpr const char* kBatchMixed = "batch_mixed";
inline constexpr const char* kLakeGithub = "lake_github";
inline constexpr const char* kFollowDrift = "follow_drift";

/// Bytes of each of the two source formats in batch_mixed and follow_drift.
inline constexpr size_t kHalfBytes = 16u << 20;

/// batch_mixed input: application_log (type 0) and github_log_5 (type 1,
/// 4-line records plus noise lines) interleaved at record granularity.
datamaran::GeneratedDataset MixedDataset(uint64_t seed);

/// follow_drift stream: application_log (type 0) followed by
/// web_server_log (type 1).
datamaran::GeneratedDataset DriftDataset(uint64_t seed);

/// One file of the lake_github directory: `name` carries a seeded rank
/// prefix (the crawl visits files in sorted order), `corpus_index` selects
/// BuildGithubDataset's content, which is fixed per index.
struct LakeFile {
  std::string name;
  int corpus_index = 0;
};
std::vector<LakeFile> LakeLayout(uint64_t seed);

/// Writes the workload's inputs into `dir`: mixed.log, stream.log, or the
/// lake/ directory.
datamaran::Status WriteInputs(const std::string& workload, uint64_t seed,
                              const std::string& dir);

/// Reads a tool's --summary-json file.
datamaran::Result<datamaran::FileSummary> ReadSummary(const std::string& path);

/// Reads the per-file summaries of a datamaran_crawl manifest.
datamaran::Result<std::vector<datamaran::FileSummary>> ReadManifestFiles(
    const std::string& path);

/// The catalog entry whose templates display exactly as `display` (the
/// template list of a tool's summary), so checks use the templates the tool
/// extracted with. Error when no entry matches.
datamaran::Result<std::vector<datamaran::StructureTemplate>> EntryByDisplay(
    const datamaran::TemplateCatalog& catalog,
    const std::vector<std::string>& display);

/// Whole-file extraction with `templates` that keeps only what the
/// Section 5.1 criterion reads (record boundaries and field units), not the
/// parsed trees, so a 32 MB input is checked in bounded memory.
struct UnitExtraction {
  datamaran::ExtractionResult stats;
  std::vector<datamaran::RecordUnits> units;
};
UnitExtraction ExtractUnits(
    const datamaran::Dataset& data,
    const std::vector<datamaran::StructureTemplate>& templates,
    int threads);

}  // namespace dmbench

#endif  // DATAMARAN_PERFBENCH_WORKLOADS_H_
