#include "workloads.h"

#include <algorithm>
#include <filesystem>

#include "core/options.h"
#include "datagen/github_corpus.h"
#include "datagen/manual_datasets.h"
#include "util/file_io.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace dmbench {

using namespace datamaran;

namespace {

// Indices into BuildManualDataset (datagen/manual_datasets.h, Table 5).
constexpr int kWebServerLog = 2;
constexpr int kApplicationLog = 12;
constexpr int kGithubLog5 = 24;

/// A record or a single noise line of a source dataset.
struct Piece {
  const GeneratedDataset* ds = nullptr;
  size_t begin = 0;
  size_t end = 0;
  const GroundTruthRecord* record = nullptr;  ///< null for a noise line
  int type = 0;                               ///< type in the output
};

std::vector<Piece> Pieces(const GeneratedDataset& ds, int type) {
  std::vector<Piece> out;
  const std::string& text = ds.text;
  size_t pos = 0;
  auto noise_until = [&](size_t limit) {
    while (pos < limit) {
      const size_t nl = text.find('\n', pos);
      const size_t end = nl == std::string::npos ? text.size() : nl + 1;
      out.push_back({&ds, pos, end, nullptr, type});
      pos = end;
    }
  };
  for (const GroundTruthRecord& rec : ds.records()) {
    noise_until(rec.begin);
    out.push_back({&ds, rec.begin, rec.end, &rec, type});
    pos = rec.end;
  }
  noise_until(text.size());
  return out;
}

/// Concatenates pieces into one dataset, carrying each record's ground
/// truth over with its offsets, first line and type rewritten.
GeneratedDataset Assemble(const std::vector<Piece>& pieces, std::string name,
                          DatasetLabel label) {
  GeneratedDataset out;
  out.name = std::move(name);
  out.label = label;
  std::vector<GroundTruthRecord> records;
  size_t line = 0;
  int max_span = 1;
  for (const Piece& p : pieces) {
    const std::string_view bytes =
        std::string_view(p.ds->text).substr(p.begin, p.end - p.begin);
    if (p.record != nullptr) {
      GroundTruthRecord rec = *p.record;
      const size_t begin = out.text.size();
      rec.type = p.type;
      rec.begin = begin;
      rec.end = begin + bytes.size();
      rec.first_line = line;
      for (TargetSpan& t : rec.targets) {
        t.begin = t.begin - p.begin + begin;
        t.end = t.end - p.begin + begin;
      }
      max_span = std::max(max_span, rec.line_count);
      records.push_back(std::move(rec));
    }
    out.text.append(bytes);
    line += static_cast<size_t>(std::count(bytes.begin(), bytes.end(), '\n'));
  }
  out.alternatives.push_back(std::move(records));
  out.record_type_count = 2;
  out.max_record_span = max_span;
  return out;
}

}  // namespace

GeneratedDataset MixedDataset(uint64_t seed) {
  const GeneratedDataset a =
      BuildManualDataset(kApplicationLog, kHalfBytes, seed);
  const GeneratedDataset b =
      BuildManualDataset(kGithubLog5, kHalfBytes, seed);
  const std::vector<Piece> pa = Pieces(a, 0);
  const std::vector<Piece> pb = Pieces(b, 1);
  // Draw the next piece from each source in proportion to what it has left,
  // so both formats stay interleaved through the whole file.
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 1);
  std::vector<Piece> merged;
  merged.reserve(pa.size() + pb.size());
  size_t ia = 0, ib = 0;
  while (ia < pa.size() || ib < pb.size()) {
    const size_t left_a = pa.size() - ia;
    const size_t left_b = pb.size() - ib;
    const bool take_a =
        left_b == 0 ||
        (left_a > 0 &&
         rng.UniformDouble() * static_cast<double>(left_a + left_b) <
             static_cast<double>(left_a));
    merged.push_back(take_a ? pa[ia++] : pb[ib++]);
  }
  return Assemble(merged, "batch_mixed", DatasetLabel::kMultiInterleaved);
}

GeneratedDataset DriftDataset(uint64_t seed) {
  const GeneratedDataset a =
      BuildManualDataset(kApplicationLog, kHalfBytes, seed);
  const GeneratedDataset b =
      BuildManualDataset(kWebServerLog, kHalfBytes, seed);
  std::vector<Piece> pieces = Pieces(a, 0);
  const std::vector<Piece> pb = Pieces(b, 1);
  pieces.insert(pieces.end(), pb.begin(), pb.end());
  return Assemble(pieces, "follow_drift",
                  DatasetLabel::kSingleNonInterleaved);
}

std::vector<LakeFile> LakeLayout(uint64_t seed) {
  std::vector<int> order(kGithubCorpusSize);
  for (int i = 0; i < kGithubCorpusSize; ++i) {
    order[static_cast<size_t>(i)] = i;
  }
  Rng rng(seed * 0xBF58476D1CE4E5B9ull + 7);
  for (size_t i = order.size() - 1; i > 0; --i) {
    const size_t j =
        static_cast<size_t>(rng.Uniform(0, static_cast<int64_t>(i)));
    std::swap(order[i], order[j]);
  }
  std::vector<LakeFile> files;
  for (size_t rank = 0; rank < order.size(); ++rank) {
    const int index = order[rank];
    files.push_back({StrFormat("%03zu-%s.log", rank,
                               BuildGithubDataset(index).name.c_str()),
                     index});
  }
  return files;
}

Status WriteInputs(const std::string& workload, uint64_t seed,
                   const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return Status::IoError("cannot create " + dir);
  if (workload == kBatchMixed) {
    return WriteFileAtomic(dir + "/mixed.log", MixedDataset(seed).text);
  }
  if (workload == kFollowDrift) {
    return WriteFileAtomic(dir + "/stream.log", DriftDataset(seed).text);
  }
  if (workload == kLakeGithub) {
    const std::string lake = dir + "/lake";
    std::filesystem::remove_all(lake, ec);
    std::filesystem::create_directories(lake, ec);
    if (ec) return Status::IoError("cannot create " + lake);
    for (const LakeFile& f : LakeLayout(seed)) {
      Status st = WriteFileAtomic(lake + "/" + f.name,
                                  BuildGithubDataset(f.corpus_index).text);
      if (!st.ok()) return st;
    }
    return Status::Ok();
  }
  return Status::InvalidArgument("unknown workload " + workload);
}

Result<FileSummary> ReadSummary(const std::string& path) {
  auto text = ReadFileToString(path);
  if (!text.ok()) return text.status();
  auto json = ParseJson(text.value());
  if (!json.ok()) return json.status();
  return FileSummaryFromJson(json.value());
}

Result<std::vector<FileSummary>> ReadManifestFiles(const std::string& path) {
  auto text = ReadFileToString(path);
  if (!text.ok()) return text.status();
  auto json = ParseJson(text.value());
  if (!json.ok()) return json.status();
  const JsonValue* files = json.value().Find("files");
  if (files == nullptr || !files->is_array()) {
    return Status::ParseError(path + ": no files array");
  }
  std::vector<FileSummary> out;
  for (const JsonValue& f : files->items) {
    auto s = FileSummaryFromJson(f);
    if (!s.ok()) return s.status();
    out.push_back(std::move(s.value()));
  }
  return out;
}

Result<std::vector<StructureTemplate>> EntryByDisplay(
    const TemplateCatalog& catalog, const std::vector<std::string>& display) {
  for (const CatalogEntry& entry : catalog.entries()) {
    if (entry.templates.size() != display.size()) continue;
    bool same = true;
    for (size_t t = 0; t < display.size() && same; ++t) {
      same = entry.templates[t].Display() == display[t];
    }
    if (same) return entry.templates;
  }
  return Status::NotFound("no catalog entry displays as the tool's templates");
}

namespace {

/// Converts records to criterion units in batches through the harness's own
/// UnitsFromPipeline, dropping each batch's parsed trees afterwards.
class UnitSink : public RecordSink {
 public:
  UnitSink(const std::vector<StructureTemplate>& templates,
           std::vector<RecordUnits>* out)
      : out_(out) {
    batch_.templates = templates;
  }

  void OnRecord(int template_id, size_t first_line,
                ParsedValue&& value) override {
    ExtractedRecord rec;
    rec.template_id = template_id;
    rec.begin = value.begin;
    rec.end = value.end;
    rec.first_line = first_line;
    rec.value = std::move(value);
    batch_.extraction.records.push_back(std::move(rec));
    if (batch_.extraction.records.size() >= 4096) Flush();
  }

  void Flush() {
    std::vector<RecordUnits> units = UnitsFromPipeline(batch_, {});
    out_->insert(out_->end(), std::make_move_iterator(units.begin()),
                 std::make_move_iterator(units.end()));
    batch_.extraction.records.clear();
  }

 private:
  PipelineResult batch_;
  std::vector<RecordUnits>* out_;
};

}  // namespace

UnitExtraction ExtractUnits(const Dataset& data,
                            const std::vector<StructureTemplate>& templates,
                            int threads) {
  UnitExtraction out;
  if (templates.empty()) {
    out.stats.total_lines = data.line_count();
    out.stats.noise_line_count = data.line_count();
    return out;
  }
  ThreadPool pool(ThreadPool::ResolveThreadCount(threads));
  const DatamaranOptions defaults;
  Extractor extractor(&templates, &pool, defaults.match_engine,
                      defaults.charset_engine, defaults.max_line_bytes);
  UnitSink sink(templates, &out.units);
  out.stats = extractor.ExtractStreaming(DatasetView(data), &sink);
  sink.Flush();
  return out;
}

}  // namespace dmbench
