// Traced in-process replay (the `replay` command).
//
// The replay makes the same sequence of public layer calls as the tool a
// workload runs, on the same inputs and at the same thread count, and wraps
// a span around each call. No span lives inside src/: the layers are timed
// from here, at their public entry points. Spans are kept in memory and
// reduced to per-layer metrics at the end.
//
// Three kinds of measurement are made, in this order:
//  1. Memory per layer: before any thread pool exists, a fork()ed child runs
//     only one layer's calls (plus the input open they need, and the tool's
//     own templates) and exits; its peak RSS is wait4's ru_maxrss, a fresh
//     high-water mark per child. A forked child's reading starts at the
//     parent's resident set, so this phase runs while the replay holds no
//     input data, and refuses to run when the parent holds more than a few
//     MB.
//  2. The replay proper, whose wall time is trace.wall_s.
//  3. Probes outside that wall: the sample view, a match-only extraction
//     into a counting sink (which separates matching from sink encoding),
//     and 1-thread repeats that give the *.speedup figures.
//
// The replay must reproduce the tools: its accepted templates and record
// counts are compared with the outputs the untraced tools left in the work
// directory, and any difference fails the command rather than reporting
// numbers for a different program.

#include "replay.h"

#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/datamaran.h"
#include "core/input.h"
#include "core/options.h"
#include "core/stream.h"
#include "extraction/sinks.h"
#include "util/file_io.h"
#include "util/sampler.h"
#include "util/strings.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace dmbench {

using namespace datamaran;

namespace {

constexpr double kMB = 1e6;
/// The CLI's --follow loop reads stdin in chunks of this size.
constexpr size_t kFollowReadBytes = 64 * 1024;
/// The largest resident set a process may have when it forks a memory
/// probe child (see ChildPeakMb).
constexpr double kMaxForkFloorMb = 16;

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Names of the spans that group the layer calls made for one input file,
/// in the first (cold) and the second (warm) tool invocation.
const char* const kColdFile = "file";
const char* const kWarmFile = "warm_file";

/// In-memory span recorder. Layer spans wrap one public call each and never
/// nest; the per-file spans group them.
class Tracer {
 public:
  struct Span {
    std::string name;
    double begin = 0;
    double end = 0;
    int parent = -1;
  };

  template <class F>
  decltype(auto) Run(const std::string& name, F&& f) {
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({name, Now(), 0, current_});
    current_ = id;
    struct Closer {
      Tracer* t;
      int id;
      ~Closer() {
        t->spans_[static_cast<size_t>(id)].end = Now();
        t->current_ = t->spans_[static_cast<size_t>(id)].parent;
      }
    } closer{this, id};
    return f();
  }

  double Total(const std::string& name) const {
    double sum = 0;
    for (const Span& s : spans_) {
      if (s.name == name) sum += s.end - s.begin;
    }
    return sum;
  }

  std::vector<double> Durations(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (s.name == name) out.push_back(s.end - s.begin);
    }
    return out;
  }

  /// Time inside layer spans (every span but the per-file groups).
  double LayerTotal() const {
    double sum = 0;
    for (const Span& s : spans_) {
      if (s.name != kColdFile && s.name != kWarmFile) sum += s.end - s.begin;
    }
    return sum;
  }

 private:
  std::vector<Span> spans_;
  int current_ = -1;
};

/// This process's resident set in MB, from /proc/self/status (VmRSS).
double ResidentMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmRSS:", 6) == 0) kb = std::atof(line + 6);
  }
  std::fclose(f);
  return kb * 1024.0 / kMB;
}

/// Runs `body` in a fork()ed child and returns the child's peak RSS in MB.
/// The caller must hold no thread pool: fork() copies only this thread.
/// The child starts with a copy of this process's pages, and its ru_maxrss
/// with them; so it fails rather than fork from a parent whose resident set
/// would hide a layer's own memory.
double ChildPeakMb(const std::function<void()>& body) {
  const double floor_mb = ResidentMb();
  if (floor_mb > kMaxForkFloorMb) {
    std::fprintf(stderr,
                 "error: memory probe refused: the parent holds %.1f MB, "
                 "more than %.0f MB, and its child would read at least "
                 "that\n",
                 floor_mb, kMaxForkFloorMb);
    std::exit(1);
  }
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("fork");
    std::exit(1);
  }
  if (pid == 0) {
    body();
    std::fflush(nullptr);
    _exit(0);
  }
  int status = 0;
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  if (wait4(pid, &status, 0, &usage) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    std::fprintf(stderr, "error: memory probe child failed\n");
    std::exit(1);
  }
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / kMB;
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = p * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

std::vector<std::string> DisplayOf(const std::vector<StructureTemplate>& ts) {
  std::vector<std::string> out;
  for (const StructureTemplate& st : ts) out.push_back(st.Display());
  return out;
}

Dataset MustOpen(const std::string& path, const DatamaranOptions& opts) {
  auto data = OpenInputs({path}, MakeInputOptions(opts));
  if (!data.ok()) {
    std::fprintf(stderr, "error: %s\n", data.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(data.value());
}

TemplateCatalog MustLoad(const std::string& path) {
  auto catalog = TemplateCatalog::Load(path);
  if (!catalog.ok()) {
    std::fprintf(stderr, "error: %s\n", catalog.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(catalog.value());
}

CatalogMatchOptions MatchOptionsFor(const DatamaranOptions& o) {
  CatalogMatchOptions m;
  m.min_match = o.catalog_min_match;
  m.min_mdl_gain = o.min_mdl_gain;
  m.max_sample_bytes = o.max_sample_bytes;
  m.sample_chunks = o.sample_chunks;
  m.max_line_bytes = o.max_line_bytes;
  m.match_engine = o.match_engine;
  m.charset_engine = o.charset_engine;
  return m;
}

CatalogEntry EntryFrom(std::vector<StructureTemplate> templates,
                       const std::vector<TemplateReport>& reports) {
  CatalogEntry entry;
  entry.templates = std::move(templates);
  for (const TemplateReport& report : reports) {
    CatalogTemplateMeta meta;
    meta.mdl_bits = report.mdl_bits;
    meta.noise_only_bits = report.noise_only_bits;
    meta.sample_records = report.sample_records;
    meta.sample_coverage = report.sample_coverage;
    entry.meta.push_back(meta);
  }
  return entry;
}

class NullEventSink : public EventSink {
 public:
  void OnRecord(int, size_t, std::string_view, size_t, size_t,
                const MatchEvent*, size_t) override {}
};

/// Every per-layer quantity the replay accumulates.
struct Layers {
  // input
  size_t open_bytes = 0;
  size_t open_lines = 0;
  // discovery (summed over every DiscoverTemplates call)
  StepTimings steps;
  PipelineStats stats;
  size_t templates = 0;
  double discovery_1t_s = 0;  ///< probe: the same calls at 1 thread
  double discovery_nt_s = 0;  ///< the calls the speedup compares against
  // sample probe
  double sample_s = 0;
  size_t sample_bytes = 0;
  // catalog
  size_t fingerprinted = 0;  ///< files fingerprinted by a catalog match
  size_t served = 0;         ///< files whose templates came from a catalog
  size_t entries = 0;
  size_t mismatch_files = 0;
  // extraction
  double match_s = 0;
  double match_1t_s = 0;
  double match_nt_s = 0;
  size_t match_bytes = 0;
  size_t match_records = 0;
  size_t match_noise = 0;
  size_t match_lines = 0;
  size_t sink_bytes_written = 0;
  // stream
  StreamStats stream;
  double stream_1t_s = 0;
  // memory (MB), from fork()ed children
  double input_mb = 0, discovery_mb = 0, collect_mb = 0, sink_mb = 0,
         stream_mb = 0;
};

/// One extraction the tool streams into its sinks; the match-only probe
/// re-runs it into a counting sink.
struct SinkPass {
  std::string path;
  std::vector<StructureTemplate> templates;
  bool pooled = true;  ///< the CLI shards over its pool; the crawl does not
};

/// Accumulates a DiscoverTemplates call's own accounting.
void AddDiscovery(const StepTimings& t, const PipelineStats& s,
                  size_t templates, Layers* L) {
  L->steps.generation_s += t.generation_s;
  L->steps.pruning_s += t.pruning_s;
  L->steps.evaluation_s += t.evaluation_s;
  L->steps.refinement_s += t.refinement_s;
  L->stats.charsets_tried += s.charsets_tried;
  L->stats.candidates_generated += s.candidates_generated;
  L->stats.candidates_evaluated += s.candidates_evaluated;
  L->stats.candidates_pruned += s.candidates_pruned;
  L->stats.rounds += s.rounds;
  L->stats.score_cache_hits += s.score_cache_hits;
  L->stats.score_cache_misses += s.score_cache_misses;
  L->templates += templates;
}

/// What a batch invocation extracted with, for the fidelity check: its
/// templates and the per-template counts of the collecting and sink passes.
struct BatchOutcome {
  std::vector<StructureTemplate> templates;
  bool hit = false;
  std::vector<size_t> collected;
  std::vector<size_t> written;
};

/// Replay of one datamaran_cli batch invocation: with `catalog_in` empty
/// the cold run (--catalog-out=catalog_out), otherwise the catalog-hit
/// re-run.
BatchOutcome ReplayBatch(const std::string& input, const std::string& out_dir,
                         const std::string& catalog_in,
                         const std::string& catalog_out,
                         const DatamaranOptions& opts, Tracer* tr,
                         Layers* L, std::vector<SinkPass>* passes,
                         std::vector<std::string>* discovered) {
  BatchOutcome outcome;
  TemplateCatalog catalog;
  if (!catalog_in.empty()) {
    catalog = tr->Run("catalog.load", [&] { return MustLoad(catalog_in); });
  }
  Datamaran dm([&] {
    DatamaranOptions o = opts;
    o.catalog_in.clear();
    o.catalog_out.clear();
    return o;
  }());
  ThreadPool pool(ThreadPool::ResolveThreadCount(opts.num_threads));
  tr->Run(catalog_in.empty() ? kColdFile : kWarmFile, [&] {
    const Dataset data =
        tr->Run("input.open", [&] { return MustOpen(input, opts); });
    L->open_bytes += data.size_bytes();
    L->open_lines += data.line_count();
    data.Advise(AccessHint::kRandom);
    std::vector<std::string> programs;
    if (!catalog.empty()) {
      const CatalogMatch m = tr->Run(
          "catalog.match",
          [&] { return MatchCatalog(catalog, data, MatchOptionsFor(opts)); });
      L->fingerprinted++;
      if (m.hit()) {
        const CatalogEntry& e = catalog.entry(static_cast<size_t>(m.entry));
        outcome.templates = e.templates;
        programs = e.programs;
        outcome.hit = true;
        L->served++;
      }
    }
    if (!outcome.hit) {
      StepTimings timings;
      PipelineStats stats;
      std::vector<TemplateReport> reports;
      outcome.templates = tr->Run("discovery", [&] {
        return dm.DiscoverTemplates(data, &timings, &stats, &reports);
      });
      AddDiscovery(timings, stats, outcome.templates.size(), L);
      discovered->push_back(input);
      if (!catalog_out.empty() && !outcome.templates.empty()) {
        catalog.AddEntry(EntryFrom(outcome.templates, reports));
      }
    }
    if (!catalog_out.empty()) {
      tr->Run("catalog.save", [&] { return catalog.Save(catalog_out); });
      L->entries = catalog.size();
    }
    // The span includes freeing the collected records, which the tool pays
    // at exit.
    outcome.collected = tr->Run("collect", [&] {
      data.Advise(AccessHint::kSequential);
      Extractor ex(&outcome.templates, &pool, opts.match_engine,
                   opts.charset_engine, opts.max_line_bytes,
                   programs.empty() ? nullptr : &programs);
      return ex.Extract(data).records_per_template;
    });
    data.Advise(AccessHint::kNormal);
    if (outcome.templates.empty()) return;
    tr->Run("sink", [&] {
      data.Advise(AccessHint::kSequential);
      Extractor ex(&outcome.templates, &pool, opts.match_engine,
                   opts.charset_engine, opts.max_line_bytes);
      DatasetView view(data);
      ColumnarWriteSink sink(&outcome.templates, view, out_dir);
      ex.ExtractEvents(view, &sink);
      (void)sink.Finish();
      outcome.written = sink.stats().records_per_template;
      L->sink_bytes_written += sink.stats().bytes_written;
    });
    passes->push_back({input, outcome.templates, true});
  });
  return outcome;
}

/// Fidelity check helper: reports `what`'s `field` when the replay and the
/// tool disagree on it.
bool Agrees(bool same, const char* what, const char* field) {
  if (!same) {
    std::fprintf(stderr, "replay differs from the tool: %s %s\n", what,
                 field);
  }
  return same;
}

/// Checks a batch replay against the tool's summary.
bool MatchesSummary(const char* what, const BatchOutcome& o,
                    const std::string& summary_path) {
  auto s = ReadSummary(summary_path);
  if (!s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.status().ToString().c_str());
    return false;
  }
  return Agrees(DisplayOf(o.templates) == s->templates, what, "templates") &&
         Agrees(o.collected == s->records_per_template, what,
                "collected record counts") &&
         Agrees(o.templates.empty() || o.written == s->records_per_template,
                what, "written record counts") &&
         Agrees(o.hit == s->catalog_hit, what, "catalog hit");
}

/// Replay of one datamaran_crawl invocation (--out, --catalog-out,
/// --manifest, optional --catalog-in): the crawl's fingerprint ->
/// discover-on-miss -> extract flow per file, in sorted order. Returns, per
/// file, the templates and per-template counts it extracted with.
struct CrawlFileOutcome {
  std::vector<std::string> templates;
  std::vector<size_t> counts;
};

std::map<std::string, CrawlFileOutcome> ReplayCrawl(
    const std::string& root, const std::string& out_dir,
    const std::string& catalog_in, const std::string& catalog_out,
    const DatamaranOptions& opts, Tracer* tr, Layers* L,
    std::vector<SinkPass>* passes, std::vector<std::string>* discovered) {
  TemplateCatalog incoming;
  if (!catalog_in.empty()) {
    incoming = tr->Run("catalog.load", [&] { return MustLoad(catalog_in); });
  }
  std::vector<std::string> names;
  for (const auto& e : std::filesystem::directory_iterator(root)) {
    names.push_back(e.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  TemplateCatalog grown = incoming;
  DatamaranOptions discover_opts = opts;
  discover_opts.catalog_in.clear();
  discover_opts.catalog_out.clear();
  Datamaran dm(discover_opts);
  const CatalogMatchOptions mopts = MatchOptionsFor(opts);
  std::map<std::string, CrawlFileOutcome> out;
  for (const std::string& name : names) {
    const std::string path = root + "/" + name;
    tr->Run(catalog_in.empty() ? kColdFile : kWarmFile, [&] {
      // Phase 1: fingerprint against the incoming catalog.
      int entry = -1;
      {
        const Dataset data =
            tr->Run("input.open", [&] { return MustOpen(path, opts); });
        L->open_bytes += data.size_bytes();
        L->open_lines += data.line_count();
        entry = tr->Run("catalog.match", [&] {
                      return MatchCatalog(incoming, data, mopts);
                    }).entry;
        L->fingerprinted++;
      }
      // Phase 2: re-fingerprint against the grown catalog, then discover.
      if (entry < 0) {
        const Dataset data =
            tr->Run("input.open", [&] { return MustOpen(path, opts); });
        L->open_bytes += data.size_bytes();
        L->open_lines += data.line_count();
        if (!grown.empty()) {
          entry = tr->Run("catalog.match", [&] {
                        return MatchCatalog(grown, data, mopts);
                      }).entry;
        }
        if (entry < 0) {
          StepTimings timings;
          PipelineStats stats;
          std::vector<TemplateReport> reports;
          std::vector<StructureTemplate> templates = tr->Run("discovery", [&] {
            return dm.DiscoverTemplates(data, &timings, &stats, &reports);
          });
          AddDiscovery(timings, stats, templates.size(), L);
          discovered->push_back(path);
          if (!templates.empty()) {
            entry = static_cast<int>(
                grown.AddEntry(EntryFrom(std::move(templates), reports)));
          }
        } else {
          L->served++;
        }
      } else {
        L->served++;
      }
      // Phase 3: extract with the entry's templates into the sinks.
      CrawlFileOutcome& result = out[name];
      if (entry < 0) return;
      const CatalogEntry& e = grown.entry(static_cast<size_t>(entry));
      result.templates = DisplayOf(e.templates);
      const Dataset data =
          tr->Run("input.open", [&] { return MustOpen(path, opts); });
      L->open_bytes += data.size_bytes();
      L->open_lines += data.line_count();
      tr->Run("sink", [&] {
        data.Advise(AccessHint::kSequential);
        Extractor ex(&e.templates, nullptr, opts.match_engine,
                     opts.charset_engine, opts.max_line_bytes,
                     e.programs.empty() ? nullptr : &e.programs);
        DatasetView view(data);
        ColumnarWriteSink sink(&e.templates, view,
                               out_dir + "/" + name + ".tables");
        const ExtractionResult stats = ex.ExtractEvents(view, &sink);
        (void)sink.Finish();
        result.counts = stats.records_per_template;
        L->sink_bytes_written += sink.stats().bytes_written;
      });
      passes->push_back({path, e.templates, false});
    });
  }
  tr->Run("catalog.save", [&] { return grown.Save(catalog_out); });
  L->entries = grown.size();
  return out;
}

bool MatchesManifest(const char* what,
                     const std::map<std::string, CrawlFileOutcome>& replay,
                     const std::string& manifest_path) {
  auto files = ReadManifestFiles(manifest_path);
  if (!files.ok()) {
    std::fprintf(stderr, "error: %s\n", files.status().ToString().c_str());
    return false;
  }
  if (!Agrees(files->size() == replay.size(), what, "file count")) {
    return false;
  }
  for (const FileSummary& s : files.value()) {
    const auto it = replay.find(s.path);
    if (!Agrees(it != replay.end(), what, "file list") ||
        !Agrees(it->second.templates == s.templates, what, "templates") ||
        !Agrees(it->second.counts == s.records_per_template, what,
                "record counts")) {
      std::fprintf(stderr, "  at %s\n", s.path.c_str());
      return false;
    }
  }
  return true;
}

/// Mirrors the CLI's --follow loop: StreamingSession into a columnar sink,
/// fed in the reader's chunk size, with a catalog checkpoint.
struct StreamOutcome {
  std::vector<StructureTemplate> templates;
  std::vector<size_t> written;
  StreamStats stats;
};

std::FILE* MustOpenFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    std::perror(path.c_str());
    std::exit(1);
  }
  return f;
}

/// Feeds the stream file at `path` to a session in the CLI's stdin read
/// size, so that, like the tool, the session never holds the whole stream.
StreamOutcome RunStream(const std::string& path, const std::string& out_dir,
                        const std::string& checkpoint,
                        const DatamaranOptions& opts, Tracer* tr) {
  Dataset empty_data{std::string()};
  DatasetView empty_view(empty_data);
  std::vector<StructureTemplate> no_templates;
  ColumnarWriteSink sink(&no_templates, empty_view, out_dir);
  StreamOptions so;
  so.checkpoint_path = checkpoint;
  so.checkpoint_merge = opts.catalog_merge;
  StreamingSession session(opts, so, &sink);
  tr->Run("stream.feed", [&] {
    std::FILE* f = MustOpenFile(path);
    std::vector<char> buf(kFollowReadBytes);
    size_t n;
    while ((n = std::fread(buf.data(), 1, buf.size(), f)) > 0) {
      session.FeedBytes(std::string_view(buf.data(), n));
    }
    std::fclose(f);
  });
  tr->Run("stream.finish", [&] {
    (void)session.Finish();
    (void)sink.Finish();
  });
  StreamOutcome o;
  o.templates.assign(session.templates().begin(), session.templates().end());
  o.written = sink.stats().records_per_template;
  o.stats = session.stats();
  return o;
}

/// The stream bytes the session's warm-up discovery runs over: the first
/// window of lines of the stream file, capped like StreamOptions' defaults.
/// Reads only as far as the window reaches.
std::string WarmupWindow(const std::string& path) {
  const StreamOptions so;
  std::FILE* f = MustOpenFile(path);
  std::string bytes;
  std::vector<char> buf(kFollowReadBytes);
  bool eof = false;
  size_t pos = 0, lines = 0;
  while (lines < so.window_lines && pos < so.window_bytes) {
    const size_t nl = bytes.find('\n', pos);
    if (nl != std::string::npos) {
      pos = nl + 1;
      lines++;
    } else if (eof) {
      pos = bytes.size();
      break;
    } else {
      const size_t n = std::fread(buf.data(), 1, buf.size(), f);
      bytes.append(buf.data(), n);
      eof = n == 0;
    }
  }
  std::fclose(f);
  bytes.resize(pos);
  return bytes;
}

void Emit(std::string* json, const char* name, double value,
          const char* unit) {
  *json += json->size() == 1 ? "" : ", ";
  *json += StrFormat("\"%s\": [%.17g, \"%s\"]", name, value, unit);
}

/// The workload's inputs and what the untraced tools' first invocation
/// extracted them with.
struct ToolRun {
  bool lake = false;
  bool follow = false;
  std::string input;  ///< mixed.log, stream.log or the lake directory
  std::vector<std::string> files;  ///< every input file, in crawl order
  std::vector<std::vector<StructureTemplate>> templates;  ///< per file
  std::vector<std::string> discovered;  ///< files the tool discovered on
};

bool LoadToolRun(const std::string& workload, const std::string& dir,
                 ToolRun* run) {
  run->lake = workload == kLakeGithub;
  run->follow = workload == kFollowDrift;
  run->input = dir + (run->lake     ? "/lake"
                      : run->follow ? "/stream.log"
                                    : "/mixed.log");
  const TemplateCatalog catalog = MustLoad(dir + "/cold.catalog");
  if (run->lake) {
    auto files = ReadManifestFiles(dir + "/cold.manifest.json");
    if (!files.ok()) return false;
    for (const FileSummary& s : files.value()) {
      run->files.push_back(run->input + "/" + s.path);
      if (!s.catalog_hit) run->discovered.push_back(run->files.back());
      run->templates.push_back(
          s.catalog_entry < 0
              ? std::vector<StructureTemplate>{}
              : catalog.entry(static_cast<size_t>(s.catalog_entry)).templates);
    }
    return true;
  }
  auto summary = ReadSummary(dir + "/cold.summary.json");
  if (!summary.ok()) return false;
  auto templates = EntryByDisplay(catalog, summary->templates);
  if (!templates.ok()) return false;
  run->files = {run->input};
  run->templates = {std::move(templates.value())};
  if (!run->follow) run->discovered = {run->input};
  return true;
}

/// Phase 1: peak RSS per layer, each from a fresh fork()ed child that runs
/// the layer's calls with the tool's own templates.
void MeasureMemory(const ToolRun& run, const DatamaranOptions& opts,
                   const std::string& rdir, Layers* L) {
  L->input_mb = ChildPeakMb([&] {
    for (const std::string& p : run.files) MustOpen(p, opts);
  });
  L->discovery_mb = ChildPeakMb([&] {
    Datamaran dm(opts);
    StepTimings t;
    PipelineStats s;
    if (run.follow) {
      dm.DiscoverTemplates(Dataset(WarmupWindow(run.input)), &t, &s,
                           nullptr);
    }
    for (const std::string& p : run.discovered) {
      dm.DiscoverTemplates(MustOpen(p, opts), &t, &s, nullptr);
    }
  });
  if (!run.lake) {
    L->collect_mb = ChildPeakMb([&] {
      const Dataset data = MustOpen(run.input, opts);
      ThreadPool pool(opts.num_threads);
      Extractor ex(&run.templates[0], &pool, opts.match_engine,
                   opts.charset_engine, opts.max_line_bytes);
      ex.Extract(data);
    });
  }
  L->sink_mb = ChildPeakMb([&] {
    ThreadPool pool(opts.num_threads);
    for (size_t i = 0; i < run.files.size(); ++i) {
      const std::vector<StructureTemplate>& ts = run.templates[i];
      if (ts.empty()) continue;
      const Dataset data = MustOpen(run.files[i], opts);
      Extractor ex(&ts, run.lake ? nullptr : &pool, opts.match_engine,
                   opts.charset_engine, opts.max_line_bytes);
      DatasetView view(data);
      ColumnarWriteSink sink(&ts, view, rdir + "/mem.out");
      ex.ExtractEvents(view, &sink);
      (void)sink.Finish();
    }
  });
  if (run.follow) {
    L->stream_mb = ChildPeakMb([&] {
      Tracer scratch;
      RunStream(run.input, rdir + "/mem.stream.out", "", opts, &scratch);
    });
  }
}

/// Phase 2: the traced replay of both tool invocations. Returns whether
/// it reproduced the tools' outputs in `dir`.
bool ReplayTools(const ToolRun& run, const std::string& dir,
                 const std::string& rdir, const DatamaranOptions& opts,
                 Tracer* tr, Layers* L, std::vector<SinkPass>* passes,
                 std::vector<std::string>* discovered) {
  const std::string cold_catalog = rdir + "/cold.catalog";
  if (run.lake) {
    const auto cold = ReplayCrawl(run.input, rdir + "/cold.out", "",
                                  cold_catalog, opts, tr, L, passes,
                                  discovered);
    const auto warm = ReplayCrawl(run.input, rdir + "/warm.out", cold_catalog,
                                  rdir + "/warm.catalog", opts, tr, L, passes,
                                  discovered);
    for (const auto& [name, c] : cold) {
      const CrawlFileOutcome& w = warm.at(name);
      if (c.templates != w.templates || c.counts != w.counts) {
        L->mismatch_files++;
      }
    }
    return MatchesManifest("cold crawl", cold, dir + "/cold.manifest.json") &&
           MatchesManifest("warm crawl", warm, dir + "/warm.manifest.json");
  }
  std::vector<std::string> cold_templates;
  bool cold_ok = false;
  if (run.follow) {
    const StreamOutcome s = tr->Run(kColdFile, [&] {
      return RunStream(run.input, rdir + "/cold.out", cold_catalog, opts,
                       tr);
    });
    L->stream = s.stats;
    cold_templates = DisplayOf(s.templates);
    auto summary = ReadSummary(dir + "/cold.summary.json");
    cold_ok = Agrees(summary.ok(), "stream", "summary") &&
              Agrees(cold_templates == summary->templates, "stream",
                     "templates") &&
              Agrees(s.written == summary->records_per_template, "stream",
                     "record counts") &&
              Agrees(s.stats.evolutions == summary->stream_evolutions,
                     "stream", "evolutions");
  } else {
    const BatchOutcome cold = ReplayBatch(run.input, rdir + "/cold.out", "",
                                          cold_catalog, opts, tr, L, passes,
                                          discovered);
    cold_templates = DisplayOf(cold.templates);
    cold_ok = MatchesSummary("cold run", cold, dir + "/cold.summary.json");
  }
  const BatchOutcome warm =
      ReplayBatch(run.input, rdir + "/warm.out", cold_catalog, "", opts, tr,
                  L, passes, discovered);
  if (DisplayOf(warm.templates) != cold_templates) L->mismatch_files = 1;
  return cold_ok &&
         MatchesSummary("warm re-run", warm, dir + "/warm.summary.json");
}

/// Phase 3: measurements outside the replay's wall.
void RunProbes(const ToolRun& run, const DatamaranOptions& opts,
               const std::string& rdir, const Tracer& tr,
               const std::vector<SinkPass>& passes,
               const std::vector<std::string>& discovered, Layers* L) {
  // Discovery inputs: the files the replay discovered, or for --follow the
  // session's warm-up window.
  std::vector<std::function<Dataset()>> discovery_inputs;
  if (run.follow) {
    discovery_inputs.push_back(
        [&] { return Dataset(WarmupWindow(run.input)); });
  } else {
    for (const std::string& p : discovered) {
      discovery_inputs.push_back([&opts, p] { return MustOpen(p, opts); });
    }
  }
  {
    DatamaranOptions o = opts;
    o.num_threads = 1;
    Datamaran dm(o);
    for (const auto& make : discovery_inputs) {
      const Dataset data = make();
      StepTimings t;
      PipelineStats s;
      double begin = Now();
      dm.DiscoverTemplates(data, &t, &s, nullptr);
      L->discovery_1t_s += Now() - begin;
      begin = Now();
      const DatasetView view = SampleView(
          data, SamplerOptions{o.max_sample_bytes, o.sample_chunks,
                               o.max_line_bytes});
      L->sample_s += Now() - begin;
      L->sample_bytes += view.size_bytes();
    }
  }
  L->discovery_nt_s = tr.Total("discovery");
  if (run.follow) {
    // The session discovers inside FeedBytes; its warm-up call is timed
    // here, from outside, at the session's thread count.
    Datamaran dm(opts);
    const Dataset data = discovery_inputs.front()();
    StepTimings t;
    PipelineStats s;
    const double begin = Now();
    const size_t n = dm.DiscoverTemplates(data, &t, &s, nullptr).size();
    L->discovery_nt_s = Now() - begin;
    AddDiscovery(t, s, n, L);
  }

  // Match-only extraction into a counting sink: the tool's sink passes,
  // at the tool's parallelism (the CLI shards a file over its pool, the
  // crawl fans out over files), after a 1-thread pass for match.speedup.
  for (int pass = 0; pass < 2; ++pass) {
    ThreadPool pool(pass == 0 ? 1 : opts.num_threads);
    std::vector<Dataset> datas;
    for (const SinkPass& p : passes) datas.push_back(MustOpen(p.path, opts));
    std::vector<ExtractionResult> results(passes.size());
    auto scan = [&](size_t i) {
      const SinkPass& p = passes[i];
      Extractor ex(&p.templates, p.pooled ? &pool : nullptr, opts.match_engine,
                   opts.charset_engine, opts.max_line_bytes);
      NullEventSink sink;
      results[i] = ex.ExtractEvents(DatasetView(datas[i]), &sink);
    };
    const double begin = Now();
    if (run.lake) {
      pool.ParallelFor(passes.size(), scan);
    } else {
      for (size_t i = 0; i < passes.size(); ++i) scan(i);
    }
    const double took = Now() - begin;
    if (pass == 0) {
      L->match_1t_s = took;
      continue;
    }
    L->match_nt_s = took;
    for (size_t i = 0; i < passes.size(); ++i) {
      L->match_bytes += datas[i].size_bytes();
      L->match_records += results[i].matched_records;
      L->match_noise += results[i].noise_line_count;
      L->match_lines += results[i].total_lines;
    }
  }
  // The crawl extracts files one after another inside each pool worker, so
  // its match time is the sequential sum over files.
  L->match_s = run.lake ? L->match_1t_s : L->match_nt_s;

  if (run.follow) {
    DatamaranOptions o = opts;
    o.num_threads = 1;
    Tracer scratch;
    RunStream(run.input, rdir + "/probe.stream.out", "", o, &scratch);
    L->stream_1t_s =
        scratch.Total("stream.feed") + scratch.Total("stream.finish");
  }
}

std::string MetricsJson(const Tracer& tr, const Layers& L, double wall,
                        double tool_wall_s) {
  const double steps = L.steps.generation_s + L.steps.pruning_s +
                       L.steps.evaluation_s + L.steps.refinement_s;
  const double stream_nt = tr.Total("stream.feed") + tr.Total("stream.finish");
  const size_t scored = L.stats.candidates_evaluated;
  const size_t pruned = L.stats.candidates_pruned;
  const size_t lookups = L.stats.score_cache_hits + L.stats.score_cache_misses;
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  auto d = [](size_t n) { return static_cast<double>(n); };
  const std::vector<double> files = tr.Durations(kColdFile);

  std::string json = "{";
  Emit(&json, "input.open_s", tr.Total("input.open"), "s");
  Emit(&json, "input.mb_per_s",
       ratio(d(L.open_bytes) / kMB, tr.Total("input.open")), "MB/s");
  Emit(&json, "input.lines", d(L.open_lines), "count");
  Emit(&json, "input.peak_rss_mb", L.input_mb, "MB");
  Emit(&json, "sample.s", L.sample_s, "s");
  Emit(&json, "sample.bytes", d(L.sample_bytes), "bytes");
  Emit(&json, "discovery.s", L.discovery_nt_s, "s");
  Emit(&json, "discovery.speedup", ratio(L.discovery_1t_s, L.discovery_nt_s),
       "x");
  Emit(&json, "discovery.rounds", L.stats.rounds, "count");
  Emit(&json, "discovery.templates", d(L.templates), "count");
  Emit(&json, "discovery.other_s", L.discovery_nt_s - steps, "s");
  Emit(&json, "discovery.peak_rss_mb", L.discovery_mb, "MB");
  Emit(&json, "generation.s", L.steps.generation_s, "s");
  Emit(&json, "generation.charsets_tried", d(L.stats.charsets_tried),
       "count");
  Emit(&json, "generation.candidates", d(L.stats.candidates_generated),
       "count");
  Emit(&json, "pruning.s", L.steps.pruning_s, "s");
  Emit(&json, "evaluation.s", L.steps.evaluation_s, "s");
  Emit(&json, "evaluation.scored", d(scored), "count");
  Emit(&json, "evaluation.pruned_ratio", ratio(d(pruned), d(scored + pruned)),
       "ratio");
  Emit(&json, "evaluation.cache_hit_ratio",
       ratio(d(L.stats.score_cache_hits), d(lookups)), "ratio");
  Emit(&json, "refinement.s", L.steps.refinement_s, "s");
  Emit(&json, "catalog.load_s", tr.Total("catalog.load"), "s");
  Emit(&json, "catalog.match_s", tr.Total("catalog.match"), "s");
  Emit(&json, "catalog.hit_ratio",
       ratio(d(L.served), d(std::max(L.fingerprinted, L.served))), "ratio");
  Emit(&json, "catalog.save_s", tr.Total("catalog.save"), "s");
  Emit(&json, "catalog.entries", d(L.entries), "count");
  Emit(&json, "catalog.cold_warm_mismatch_files", d(L.mismatch_files),
       "count");
  Emit(&json, "match.s", L.match_s, "s");
  Emit(&json, "match.speedup", ratio(L.match_1t_s, L.match_nt_s), "x");
  Emit(&json, "match.mb_per_s", ratio(d(L.match_bytes) / kMB, L.match_s),
       "MB/s");
  Emit(&json, "match.records", d(L.match_records), "count");
  Emit(&json, "match.noise_lines", d(L.match_noise), "count");
  Emit(&json, "match.line_match_ratio",
       ratio(d(L.match_lines - L.match_noise), d(L.match_lines)), "ratio");
  Emit(&json, "collect.s", tr.Total("collect"), "s");
  Emit(&json, "collect.peak_rss_mb", L.collect_mb, "MB");
  Emit(&json, "sink.s", tr.Total("sink") - L.match_s, "s");
  Emit(&json, "sink.mb_written", d(L.sink_bytes_written) / kMB, "MB");
  Emit(&json, "sink.peak_rss_mb", L.sink_mb, "MB");
  Emit(&json, "stream.feed_s", tr.Total("stream.feed"), "s");
  Emit(&json, "stream.finish_s", tr.Total("stream.finish"), "s");
  Emit(&json, "stream.speedup", ratio(L.stream_1t_s, stream_nt), "x");
  Emit(&json, "stream.epochs", d(L.stream.epochs), "count");
  Emit(&json, "stream.evolutions", d(L.stream.evolutions), "count");
  Emit(&json, "stream.discovery_runs", d(L.stream.discovery_runs), "count");
  Emit(&json, "stream.peak_rss_mb", L.stream_mb, "MB");
  Emit(&json, "trace.wall_s", wall, "s");
  Emit(&json, "trace.unattributed_pct",
       100.0 * ratio(wall - tr.LayerTotal(), wall), "%");
  Emit(&json, "trace.gap_pct", 100.0 * ratio(wall - tool_wall_s, tool_wall_s),
       "%");
  Emit(&json, "file.p50_ms", Percentile(files, 0.5) * 1e3, "ms");
  Emit(&json, "file.p90_ms", Percentile(files, 0.9) * 1e3, "ms");
  return json + "}";
}

}  // namespace

int Replay(const std::string& workload, const std::string& dir, int threads,
           double tool_wall_s) {
  DatamaranOptions opts;
  opts.num_threads = threads;
  ToolRun run;
  if (!LoadToolRun(workload, dir, &run)) {
    std::fprintf(stderr, "error: cannot read the tools' outputs in %s\n",
                 dir.c_str());
    return 1;
  }
  const std::string rdir = dir + "/replay";
  std::error_code ec;
  std::filesystem::remove_all(rdir, ec);
  Layers L;
  MeasureMemory(run, opts, rdir, &L);
  std::filesystem::remove_all(rdir, ec);
  std::filesystem::create_directories(rdir, ec);

  Tracer tr;
  std::vector<SinkPass> passes;
  std::vector<std::string> discovered;
  const double begin = Now();
  const bool faithful =
      ReplayTools(run, dir, rdir, opts, &tr, &L, &passes, &discovered);
  const double wall = Now() - begin;
  if (!faithful) {
    std::fprintf(stderr, "error: the traced replay does not reproduce the "
                         "untraced tools\n");
    return 1;
  }
  if (run.follow) L.entries = MustLoad(rdir + "/cold.catalog").size();

  RunProbes(run, opts, rdir, tr, passes, discovered, &L);
  std::filesystem::remove_all(rdir, ec);
  std::printf("%s\n", MetricsJson(tr, L, wall, tool_wall_s).c_str());
  return 0;
}

int RssProbe(size_t mib, bool linear, size_t ballast_mib) {
  constexpr size_t kChunk = 1 << 20;
  std::vector<char> ballast(ballast_mib * kChunk, 1);
  const double peak = ChildPeakMb([&] {
    std::vector<std::unique_ptr<char[]>> live;
    std::unique_ptr<char[]> reused(new char[kChunk]);
    for (size_t i = 0; i < mib; ++i) {
      char* p = reused.get();
      if (linear) {
        live.emplace_back(new char[kChunk]);
        p = live.back().get();
      }
      std::memset(p, static_cast<int>(i), kChunk);
    }
  });
  std::printf("{\"peak_rss_mb\": %.3f}\n", peak);
  return 0;
}

}  // namespace dmbench
