// Ground-truth check of the tools' outputs (the `check` command).
//
// Every operation is checked with the Section 5.1 / 9.3 criterion
// (evalharness CheckExtraction) against src/datagen ground truth, using the
// exact templates the tool emitted: they are read back from the catalog the
// tool wrote, selected by the template list of its summary or manifest,
// never re-discovered. The tool's per-template record counts must also equal
// the checked extraction's.

#include "check.h"

#include <map>

#include "core/input.h"
#include "core/options.h"
#include "datagen/github_corpus.h"
#include "extraction/sinks.h"
#include "util/strings.h"
#include "workloads.h"

namespace dmbench {

using namespace datamaran;

namespace {

Result<Dataset> OpenLikeTools(const std::string& path) {
  return OpenInput(path, MakeInputOptions(DatamaranOptions{}));
}

std::string CountsText(const std::vector<size_t>& counts) {
  std::string out = "[";
  for (size_t i = 0; i < counts.size(); ++i) {
    out += StrFormat(i == 0 ? "%zu" : ",%zu", counts[i]);
  }
  return out + "]";
}

/// Why an operation failed; an empty reason means it passed.
struct Miss {
  std::string reason;
  bool criterion_only = false;
};

Miss CriterionMiss(const std::string& why) { return {why, true}; }

/// Criterion + count check of one summary against a checked extraction.
Miss Verdict(const FileSummary& s, const SuccessReport& report,
             const UnitExtraction& checked) {
  if (!s.error.empty()) return {"tool error: " + s.error};
  if (!report.success) return CriterionMiss(report.failure_reason);
  if (s.records_per_template != checked.stats.records_per_template) {
    return {"records per template " + CountsText(s.records_per_template) +
            " != checked " + CountsText(checked.stats.records_per_template)};
  }
  return {};
}

void AddOp(CheckReport* r, const std::string& command,
           const std::string& file, Miss miss) {
  r->ops.push_back(
      {command, file, std::move(miss.reason), miss.criterion_only});
}

/// batch_mixed and follow_drift: one input file, a `cold` run that wrote
/// cold.catalog, and a `warm` catalog-hit re-run.
void CheckSingleFile(const std::string& workload, uint64_t seed,
                     const std::string& dir, int threads, CheckReport* r) {
  const bool follow = workload == kFollowDrift;
  const GeneratedDataset ds = follow ? DriftDataset(seed) : MixedDataset(seed);
  const std::string file = follow ? "stream.log" : "mixed.log";
  const std::string input = dir + "/" + file;
  auto cold = ReadSummary(dir + "/cold.summary.json");
  auto warm = ReadSummary(dir + "/warm.summary.json");
  auto catalog = TemplateCatalog::Load(dir + "/cold.catalog");
  auto data = OpenLikeTools(input);
  if (!cold.ok() || !warm.ok() || !catalog.ok() || !data.ok()) {
    const std::string why = !cold.ok()      ? cold.status().ToString()
                            : !warm.ok()    ? warm.status().ToString()
                            : !catalog.ok() ? catalog.status().ToString()
                                            : data.status().ToString();
    AddOp(r, "cold", file, {"missing output: " + why});
    AddOp(r, "warm", file, {"missing output: " + why});
    return;
  }
  if (data->text() != ds.text) {
    AddOp(r, "cold", file, {"input file differs from the generated dataset"});
    AddOp(r, "warm", file, {"input file differs from the generated dataset"});
    return;
  }
  auto templates = EntryByDisplay(catalog.value(), cold->templates);
  if (!templates.ok()) {
    AddOp(r, "cold", file, {templates.status().ToString()});
    AddOp(r, "warm", file, {templates.status().ToString()});
    return;
  }
  const UnitExtraction checked =
      ExtractUnits(data.value(), templates.value(), threads);
  const SuccessReport report = CheckExtraction(ds, checked.units);

  Miss cold_miss;
  if (follow) {
    // The stream's per-template counts include the lines decided as noise
    // before drift triggered the evolution, so they are checked for
    // consistency here; the warm batch re-run carries the count check.
    size_t sum = 0;
    for (size_t n : cold->records_per_template) sum += n;
    if (!cold->error.empty()) {
      cold_miss = {"tool error: " + cold->error};
    } else if (cold->stream_evolutions != 1) {
      cold_miss = {StrFormat("%zu evolutions, expected exactly 1",
                             cold->stream_evolutions)};
    } else if (!report.success) {
      cold_miss = CriterionMiss("final templates: " + report.failure_reason);
    } else if (sum != cold->records) {
      cold_miss = {"records per template do not sum to records"};
    }
  } else {
    cold_miss = Verdict(cold.value(), report, checked);
  }
  AddOp(r, "cold", file, cold_miss);

  Miss warm_miss = Verdict(warm.value(), report, checked);
  if (warm_miss.reason.empty() && !warm->catalog_hit) {
    warm_miss = {"warm re-run missed the catalog"};
  } else if (warm_miss.reason.empty() && warm->templates != cold->templates) {
    warm_miss = {"warm re-run used other templates"};
  }
  AddOp(r, "warm", file, warm_miss);
  if (warm->templates != cold->templates ||
      (!follow && warm->records_per_template != cold->records_per_template)) {
    r->mismatch_files.push_back(file);
  }
}

void CheckLake(uint64_t seed, const std::string& dir, CheckReport* r) {
  const std::vector<LakeFile> layout = LakeLayout(seed);
  std::map<std::string, FileSummary> by_crawl[2];
  const char* kCrawls[2] = {"cold", "warm"};
  for (int c = 0; c < 2; ++c) {
    const std::string name = kCrawls[c];
    auto files = ReadManifestFiles(dir + "/" + name + ".manifest.json");
    auto catalog = TemplateCatalog::Load(dir + "/" + name + ".catalog");
    if (!files.ok() || !catalog.ok()) {
      const std::string why = !files.ok() ? files.status().ToString()
                                          : catalog.status().ToString();
      for (const LakeFile& f : layout) {
        AddOp(r, name, "lake/" + f.name, {"missing output: " + why});
      }
      continue;
    }
    for (FileSummary& s : files.value()) by_crawl[c][s.path] = std::move(s);
    for (const LakeFile& f : layout) {
      const std::string file = "lake/" + f.name;
      const auto it = by_crawl[c].find(f.name);
      if (it == by_crawl[c].end()) {
        AddOp(r, name, file, {"file missing from the manifest"});
        continue;
      }
      const FileSummary& s = it->second;
      std::vector<StructureTemplate> templates;
      if (s.catalog_entry >= 0) {
        if (static_cast<size_t>(s.catalog_entry) >= catalog->size()) {
          AddOp(r, name, file, {"catalog entry out of range"});
          continue;
        }
        templates =
            catalog->entry(static_cast<size_t>(s.catalog_entry)).templates;
        std::vector<std::string> display;
        for (const StructureTemplate& st : templates) {
          display.push_back(st.Display());
        }
        if (display != s.templates) {
          AddOp(r, name, file,
                {"manifest templates differ from its catalog entry"});
          continue;
        }
      }
      const GeneratedDataset ds = BuildGithubDataset(f.corpus_index);
      auto data = OpenLikeTools(dir + "/lake/" + f.name);
      if (!data.ok() || data->text() != ds.text) {
        AddOp(r, name, file, {"input file differs from the generated dataset"});
        continue;
      }
      const UnitExtraction checked = ExtractUnits(data.value(), templates, 1);
      AddOp(r, name, file,
            Verdict(s, CheckExtraction(ds, checked.units), checked));
    }
  }
  // A warm re-crawl with the cold crawl's own catalog should reproduce the
  // cold crawl file for file; list every file where it does not.
  for (const LakeFile& f : layout) {
    const auto cold = by_crawl[0].find(f.name);
    const auto warm = by_crawl[1].find(f.name);
    if (cold == by_crawl[0].end() || warm == by_crawl[1].end()) continue;
    if (cold->second.templates != warm->second.templates ||
        cold->second.records_per_template !=
            warm->second.records_per_template) {
      r->mismatch_files.push_back(f.name);
    }
  }
}

}  // namespace

CheckReport CheckWorkload(const std::string& workload, uint64_t seed,
                          const std::string& dir, int threads) {
  CheckReport report;
  if (workload == kLakeGithub) {
    CheckLake(seed, dir, &report);
  } else {
    CheckSingleFile(workload, seed, dir, threads, &report);
  }
  return report;
}

std::string CheckReportJson(const CheckReport& report) {
  size_t failed = 0;
  std::string failures;
  for (const CheckOp& op : report.ops) {
    if (op.ok()) continue;
    failures += failed++ == 0 ? "{\"command\": \"" : ", {\"command\": \"";
    AppendJsonEscaped(op.command, &failures);
    failures += "\", \"file\": \"";
    AppendJsonEscaped(op.file, &failures);
    failures += "\", \"kind\": \"";
    failures += op.criterion_only ? "criterion" : "other";
    failures += "\", \"reason\": \"";
    AppendJsonEscaped(op.reason, &failures);
    failures += "\"}";
  }
  std::string mismatch;
  for (size_t i = 0; i < report.mismatch_files.size(); ++i) {
    mismatch += i == 0 ? "\"" : ", \"";
    AppendJsonEscaped(report.mismatch_files[i], &mismatch);
    mismatch += '"';
  }
  return StrFormat("{\"attempted\": %zu, \"failed\": %zu, \"failures\": [%s], "
                   "\"mismatch_files\": [%s]}",
                   report.ops.size(), failed, failures.c_str(),
                   mismatch.c_str());
}

}  // namespace dmbench
