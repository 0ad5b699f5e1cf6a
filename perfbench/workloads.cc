#include "workloads.h"

#include <time.h>

#include <algorithm>
#include <fstream>
#include <memory>
#include <random>
#include <stdexcept>
#include <utility>

#include "core/engine.h"
#include "core/paper_workload.h"
#include "obs/metrics.h"
#include "plan/lowering.h"
#include "plan/physical_plan.h"
#include "query/cube_query.h"
#include "server/query_server.h"
#include "spans.h"
#include "stats.h"

namespace perfbench {
namespace {

using starshare::CubeExecution;
using starshare::CubeQuery;
using starshare::DataGeneratorConfig;
using starshare::DimensionalQuery;
using starshare::Engine;
using starshare::EngineConfig;
using starshare::ExecutedQuery;
using starshare::GlobalPlan;
using starshare::IoStats;
using starshare::OptimizerKind;
using starshare::PaperWorkload;
using starshare::QueryHandle;
using starshare::QueryOutcome;
using starshare::QueryResult;
using starshare::Session;
using starshare::StarSchema;

// ---- Workload constants ---------------------------------------------------
//
// Request counts scale with --seconds so that a run measures about that
// long on a 4-vCPU host; they depend on nothing else, so one seed and one
// --seconds value always give the same inputs.

constexpr int kSetupRepetitions = 3;  // setup_s is the median of these

constexpr uint64_t kPaperRows = 2'000'000;
constexpr uint64_t kAppendRows = 500'000;
constexpr uint64_t kAppendDeltaRows = 5'000;
constexpr size_t kReportsPerCycle = 10;

// Engine parallelism 3 plus the client thread fills the 4 vCPUs;
// server_reports uses 2 workers beside the server's controller and the
// client.
constexpr size_t kClosedLoopParallelism = 3;
constexpr size_t kServerParallelism = 2;

constexpr size_t kReportsPerSecond = 150;       // paper_reports
constexpr size_t kCubesPerSecond = 120;         // fact_cube
constexpr size_t kCyclesPerSecond = 2;          // append_refresh
constexpr size_t kServerReportsPerSecond = 90;  // server_reports

constexpr size_t kReportWarmup = 120;
constexpr size_t kCubeWarmup = 300;
constexpr size_t kAppendWarmupCycles = 1;
constexpr size_t kServerWarmup = 120;

// Warm-up requests whose results are compared against an independent path.
constexpr size_t kReportChecks = 20;
constexpr size_t kCubeChecks = 4;

const char* const kCounters[] = {
    "exec.scan_passes", "exec.probe_passes", "exec.derived_passes",
    "exec.classes",     "exec.spill.runs",   "thread_pool.tasks",
    "view.refreshes",   "server.segments",
};

// ---- Process measurements ---------------------------------------------------

int64_t ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

// High-water resident set size of this process (VmHWM), in MiB.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

std::map<std::string, uint64_t> CounterSnapshot() {
  std::map<std::string, uint64_t> out;
  for (const char* name : kCounters) {
    out[name] = starshare::obs::Metrics().counter(name).value();
  }
  return out;
}

// Exact comparison: same target, same groups, bit-equal values. Every
// workload loads integer-valued measures, so SUMs are exact under any fold
// order and equality is meant literally.
bool SameResult(QueryResult a, QueryResult b) {
  a.Canonicalize();
  b.Canonicalize();
  if (!(a.target() == b.target()) || a.num_rows() != b.num_rows()) {
    return false;
  }
  for (size_t i = 0; i < a.num_rows(); ++i) {
    if (a.rows()[i].keys != b.rows()[i].keys ||
        a.rows()[i].value != b.rows()[i].value) {
      return false;
    }
  }
  return true;
}

bool Clean(const ExecutedQuery& q) { return q.ok() && !q.degraded; }

// ---- Run state ----------------------------------------------------------

// What the timed region accumulates. In a traced run each request executes
// twice, untraced then traced, so the pair sees the same engine state; the
// per-layer numbers come from the traced executions.
struct Timed {
  std::vector<double> request_ms;  // latency samples (traced run: traced)
  std::vector<double> append_ms;
  uint64_t requests = 0;    // timed requests (a pair counts once)
  uint64_t executions = 0;  // request executions (a pair counts twice)
  IoStats read_io;          // pages of request executions
  IoStats append_io;        // pages of appends
  double untraced_ms = 0;   // traced run: sum over untraced executions
  double traced_ms = 0;     // traced run: sum over traced executions
  double est_ms = 0;        // optimizer estimates, summed
  uint64_t classes = 0;     // planned classes, summed
  uint64_t rows_out = 0;    // result rows, summed
  uint64_t base_levels = 0;
  uint64_t rollup_levels = 0;
  int64_t wall_ns = 0;
  int64_t cpu_ns = 0;
  std::map<std::string, uint64_t> counters_before;
  std::map<std::string, uint64_t> counters_after;

  void Start() {
    starshare::obs::Metrics().gauge("exec.mem.peak_bytes").Set(0);
    counters_before = CounterSnapshot();
    wall_ns = -NowNs();
    cpu_ns = -ProcessCpuNs();
  }
  void Stop() {
    wall_ns += NowNs();
    cpu_ns += ProcessCpuNs();
    counters_after = CounterSnapshot();
  }
  uint64_t Delta(const char* name) const {
    return counters_after.at(name) - counters_before.at(name);
  }
};

class Run {
 public:
  explicit Run(const Options& options)
      : options_(options), spans_(options.trace), rng_(options.seed) {}

  const Options& options() const { return options_; }
  SpanLog& spans() { return spans_; }
  std::mt19937_64& rng() { return rng_; }
  RunResult& result() { return result_; }
  Digest& stream_digest() { return stream_digest_; }
  Digest& pages_digest() { return pages_digest_; }

  void Mismatch(const std::string& what) {
    if (result_.correct) result_.error = what;
    result_.correct = false;
  }
  void Op(bool ok) {
    ++result_.attempted;
    if (!ok) ++result_.failed;
  }

  // Builds the workload's engine kSetupRepetitions times, timing each build
  // from construction through fact load, view materialization and index
  // build, and keeps the last. The previous engine is destroyed untimed.
  // The fact table holds `nominal_rows` less a seed-drawn 0-1%, so its
  // page count, and with it every page-derived metric, is a property of
  // the seed rather than a constant of the workload.
  std::unique_ptr<Engine> SetUp(uint64_t nominal_rows, size_t parallelism) {
    const uint64_t rows = nominal_rows - rng_() % (nominal_rows / 100);
    const uint64_t data_seed = rng_();
    std::unique_ptr<Engine> engine;
    for (int k = 0; k < kSetupRepetitions; ++k) {
      engine.reset();
      const int64_t t0 = NowNs();
      {
        ScopedSpan setup(spans_, "setup");
        engine = BuildEngine(rows, data_seed, parallelism);
      }
      setup_s_.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    }
    const starshare::Table& fact = engine->base_view()->table();
    result_.stamps["parallelism"] = std::to_string(parallelism);
    result_.stamps["fact_rows"] = std::to_string(rows);
    result_.stamps["page_layout"] =
        std::string(fact.compressed() ? "packed" : "raw") +
        ", rows_per_page=" + std::to_string(fact.rows_per_page()) +
        ", fact_pages=" + std::to_string(fact.num_pages());
    return engine;
  }

  // Fills the result's metrics from the timed region. `threads` is the
  // number of busy threads the workload is sized for (engine + client).
  void Finish(Engine& engine, const Timed& t, size_t threads) {
    const double requests = static_cast<double>(t.requests);
    const double execs = static_cast<double>(std::max<uint64_t>(
        1, t.executions));
    std::map<std::string, double>& e2e = result_.end_to_end;
    const double wall_s = static_cast<double>(t.wall_ns) / 1e9;
    e2e["setup_s"] = Median(setup_s_);
    e2e["request_ms.p50"] = Percentile(t.request_ms, 0.5);
    e2e["request_ms.p90"] = Percentile(t.request_ms, 0.9);
    e2e["throughput_rps"] = requests / wall_s;
    IoStats total = t.read_io;
    total += t.append_io;
    e2e["modeled_io_ms"] = engine.ModeledIoMs(total) / requests;
    e2e["cpu_ms_per_request"] = static_cast<double>(t.cpu_ns) / 1e6 / requests;
    e2e["peak_rss_mb"] = PeakRssMb();

    std::map<std::string, double>& layer = result_.per_layer;
    const std::map<std::string, std::vector<int64_t>> self =
        spans_.SelfTimesNs();
    auto median_ms = [&](const char* name) {
      auto it = self.find(name);
      if (it == self.end()) return 0.0;
      std::vector<double> ms;
      for (int64_t ns : it->second) ms.push_back(static_cast<double>(ns) / 1e6);
      return Median(ms);
    };
    // Self time per traced request execution.
    auto per_request_ms = [&](const char* name) {
      auto it = self.find(name);
      if (it == self.end() || t.requests == 0) return 0.0;
      int64_t sum = 0;
      for (int64_t ns : it->second) sum += ns;
      return static_cast<double>(sum) / 1e6 / requests;
    };
    layer["schema.load_ms"] = median_ms("schema.load");
    layer["cube.materialize_ms"] = median_ms("cube.materialize");
    layer["index.build_ms"] = median_ms("index.build");
    layer["mdx.parse_ms"] = per_request_ms("mdx.parse");
    layer["opt.optimize_ms"] = per_request_ms("opt.optimize");
    layer["plan.lower_ms"] = per_request_ms("plan.lower");
    layer["exec.execute_ms"] = per_request_ms("exec.execute");
    layer["server.batch_ms"] = per_request_ms("server.batch");
    layer["opt.classes"] = static_cast<double>(t.classes) / execs;
    layer["opt.est_ms"] = t.est_ms / execs;
    layer["exec.scan_passes"] = t.Delta("exec.scan_passes") / execs;
    layer["exec.probe_passes"] = t.Delta("exec.probe_passes") / execs;
    layer["exec.derived_passes"] = t.Delta("exec.derived_passes") / execs;
    layer["exec.classes"] = t.Delta("exec.classes") / execs;
    layer["exec.rows_out"] = static_cast<double>(t.rows_out) / execs;
    layer["exec.mem.peak_bytes"] = static_cast<double>(
        starshare::obs::Metrics().gauge("exec.mem.peak_bytes").value());
    layer["exec.spill.runs"] = static_cast<double>(t.Delta("exec.spill.runs"));
    layer["cube.base_levels"] = static_cast<double>(t.base_levels) / execs;
    layer["cube.rollup_levels"] = static_cast<double>(t.rollup_levels) / execs;
    double view_rows = 0;
    for (const auto& view : engine.views().all()) {
      if (view.get() != engine.base_view()) {
        view_rows += static_cast<double>(view->table().num_rows());
      }
    }
    layer["cube.view_rows"] = view_rows;
    const double appends = static_cast<double>(t.append_ms.size());
    layer["view.refreshes"] =
        appends > 0 ? t.Delta("view.refreshes") / appends : 0.0;
    layer["append_ms.p50"] = appends > 0 ? Median(t.append_ms) : 0.0;
    layer["storage.seq_pages"] = t.read_io.seq_pages_read / execs;
    layer["storage.rand_pages"] = t.read_io.rand_pages_read / execs;
    layer["storage.index_pages"] = t.read_io.index_pages_read / execs;
    layer["storage.pages_written"] =
        appends > 0 ? t.append_io.pages_written / appends
                    : t.read_io.pages_written / execs;
    layer["storage.decode_mrows_s"] = DecodeMrowsPerSecond(engine);
    layer["parallel.tasks"] = t.Delta("thread_pool.tasks") / execs;
    layer["parallel.cpu_util"] =
        static_cast<double>(t.cpu_ns) / (static_cast<double>(t.wall_ns) *
                                         static_cast<double>(threads));
    layer["trace_overhead_frac"] =
        t.untraced_ms > 0 ? t.traced_ms / t.untraced_ms - 1.0 : 0.0;
    for (const char* name :
         {"server.admitted", "server.classes_opened", "server.shared_hit_rate",
          "server.segments", "server.queue_depth.max"}) {
      layer.emplace(name, 0.0);  // set by server_reports only
    }

    result_.stamps["stream_digest"] = stream_digest_.Hex();
    result_.stamps["pages_digest"] = pages_digest_.Hex();
    result_.stamps["samples"] =
        "request_ms=" + std::to_string(t.request_ms.size()) +
        ", setup_s=" + std::to_string(setup_s_.size()) +
        ", append_ms=" + std::to_string(t.append_ms.size());
    result_.stamps["timed_requests"] = std::to_string(t.requests);
    result_.stamps["timed_wall_s"] = std::to_string(wall_s);
  }

  // Writes the traced run's spans beside the build.
  void WriteSpans() {
    if (!options_.trace) return;
    const std::string path = options_.out_dir + "/spans-" +
                             options_.workload + "-" +
                             std::to_string(options_.seed) + ".json";
    if (!spans_.WriteJson(path)) {
      throw std::runtime_error("cannot write " + path);
    }
    result_.stamps["spans"] = path;
  }

 private:
  std::unique_ptr<Engine> BuildEngine(uint64_t rows, uint64_t data_seed,
                                      size_t parallelism) {
    EngineConfig config;
    config.parallelism = parallelism;
    auto engine =
        std::make_unique<Engine>(StarSchema::PaperTestSchema(), config);
    {
      ScopedSpan span(spans_, "schema.load");
      engine->LoadFactTable(DataGeneratorConfig{.num_rows = rows,
                                                .seed = data_seed,
                                                .integer_measures = true});
    }
    {
      ScopedSpan span(spans_, "cube.materialize");
      auto views = engine->MaterializeViews(PaperWorkload::ViewSpecs());
      if (!views.ok()) {
        throw std::runtime_error("MaterializeViews: " +
                                 views.status().ToString());
      }
    }
    {
      ScopedSpan span(spans_, "index.build");
      const starshare::Status st = engine->BuildIndexes(
          PaperWorkload::IndexedViewSpec(), PaperWorkload::IndexedDims());
      if (!st.ok()) throw std::runtime_error("BuildIndexes: " + st.ToString());
    }
    engine->ConsumeIoStats();
    return engine;
  }

  // Decode rate of the fact table's packed key columns through
  // KeyColumn::ForEach: median of three full passes (traced run only).
  double DecodeMrowsPerSecond(const Engine& engine) {
    if (!options_.trace) return 0.0;
    const starshare::Table& fact = engine.base_view()->table();
    std::vector<double> rates;
    int64_t sink = 0;
    for (int pass = 0; pass < 3; ++pass) {
      ScopedSpan span(spans_, "storage.decode");
      const int64_t t0 = NowNs();
      for (size_t c = 0; c < fact.num_key_columns(); ++c) {
        fact.key_column(c).ForEach(0, fact.num_rows(),
                                   [&](uint64_t, int32_t v) { sink += v; });
      }
      const double s = static_cast<double>(NowNs() - t0) / 1e9;
      rates.push_back(static_cast<double>(fact.num_rows() *
                                          fact.num_key_columns()) /
                      1e6 / s);
    }
    if (sink == 0) throw std::runtime_error("decoded an all-zero fact table");
    return Median(rates);
  }

  const Options& options_;
  SpanLog spans_;
  std::mt19937_64 rng_;
  RunResult result_;
  Digest stream_digest_;
  Digest pages_digest_;
  std::vector<double> setup_s_;
};

void AddPages(Digest& digest, const IoStats& io) {
  digest.Add(io.seq_pages_read);
  digest.Add(io.rand_pages_read);
  digest.Add(io.index_pages_read);
  digest.Add(io.pages_written);
}

// Runs `fn` for one timed request and keeps the latency it returns: once,
// or, in a traced run, untraced and then traced.
template <typename Fn>
void TimedRequest(Run& run, Timed& t, Fn&& fn) {
  SpanLog& spans = run.spans();
  if (!run.options().trace) {
    t.request_ms.push_back(fn());
  } else {
    spans.set_enabled(false);
    t.untraced_ms += fn();
    spans.set_enabled(true);
    const double ms = fn();
    t.traced_ms += ms;
    t.request_ms.push_back(ms);
  }
  ++t.requests;
}

// ---- MDX reports (paper_reports, append_refresh) --------------------------

// Each report names 2-5 distinct §7.3 queries.
std::vector<std::vector<int>> ReportStream(Run& run, size_t n) {
  std::vector<std::vector<int>> out;
  for (size_t i = 0; i < n; ++i) {
    std::vector<int> ids = {1, 2, 3, 4, 5, 6, 7, 8, 9};
    const size_t k = 2 + run.rng()() % 4;
    for (size_t j = 0; j < k; ++j) {
      std::swap(ids[j], ids[j + run.rng()() % (ids.size() - j)]);
    }
    ids.resize(k);
    run.stream_digest().Add(static_cast<uint64_t>(k));
    for (int id : ids) run.stream_digest().Add(static_cast<uint64_t>(id));
    out.push_back(std::move(ids));
  }
  return out;
}

// Parses each component of a report with ParseMdx, ids 1..k. A component
// that fails to parse is left out, which the caller counts as a failure.
std::vector<DimensionalQuery> ParseReport(const Engine& engine, SpanLog& spans,
                                          const std::vector<int>& ids,
                                          int64_t request) {
  ScopedSpan span(spans, "mdx.parse", request);
  std::vector<DimensionalQuery> queries;
  for (size_t j = 0; j < ids.size(); ++j) {
    auto parsed = engine.ParseMdx(PaperWorkload::QueryMdx(ids[j]),
                                  static_cast<int>(j) + 1);
    if (parsed.ok() && parsed.value().size() == 1) {
      queries.push_back(std::move(parsed.value()[0]));
    }
  }
  return queries;
}

struct Report {
  std::vector<DimensionalQuery> queries;
  GlobalPlan plan;
  std::vector<ExecutedQuery> results;
  IoStats io;
  double ms = 0;
  bool ok = false;
};

// One report: ParseMdx per component, one Optimize, one Execute.
Report RunReport(Engine& engine, SpanLog& spans, const std::vector<int>& ids,
                 int64_t request) {
  Report r;
  const int64_t t0 = NowNs();
  {
    ScopedSpan req(spans, "request", request);
    r.queries = ParseReport(engine, spans, ids, request);
    {
      ScopedSpan span(spans, "opt.optimize", request);
      r.plan = engine.Optimize(r.queries, OptimizerKind::kGlobalGreedy);
    }
    {
      ScopedSpan span(spans, "exec.execute", request);
      r.results = engine.Execute(r.plan);
    }
  }
  r.ms = static_cast<double>(NowNs() - t0) / 1e6;
  r.io = engine.ConsumeIoStats();
  if (spans.enabled()) {
    // Lowering is not on the request path; it is timed on the same plan,
    // outside the request span.
    ScopedSpan span(spans, "plan.lower", request);
    starshare::PhysicalPlan phys;
    starshare::LowerGlobalPlan(phys, r.plan, engine.schema());
  }
  r.ok = r.results.size() == ids.size() &&
         std::all_of(r.results.begin(), r.results.end(), Clean);
  return r;
}

// Compares a report against ExecuteUnshared on the same plan.
void CheckReport(Run& run, Engine& engine, const Report& r) {
  if (!r.ok) return;
  const std::vector<ExecutedQuery> unshared = engine.ExecuteUnshared(r.plan);
  engine.ConsumeIoStats();
  for (const ExecutedQuery& got : r.results) {
    const auto want =
        std::find_if(unshared.begin(), unshared.end(), [&](const auto& u) {
          return u.query->id() == got.query->id();
        });
    if (want == unshared.end() || !Clean(*want) ||
        !SameResult(got.result, want->result)) {
      run.Mismatch("report query " + got.query->label() +
                   " differs from ExecuteUnshared");
    }
  }
}

void TimedReport(Run& run, Engine& engine, Timed& t,
                 const std::vector<int>& ids, int64_t request) {
  TimedRequest(run, t, [&] {
    Report r = RunReport(engine, run.spans(), ids, request);
    run.Op(r.ok);
    ++t.executions;
    t.read_io += r.io;
    AddPages(run.pages_digest(), r.io);
    t.est_ms += r.plan.EstMs();
    t.classes += r.plan.classes.size();
    for (const ExecutedQuery& q : r.results) t.rows_out += q.result.num_rows();
    return r.ms;
  });
}

// How many timed requests a run makes: `per_second` x --seconds, halved in
// a traced run, which executes every request twice.
size_t TimedCount(const Options& options, size_t per_second) {
  const size_t n = per_second * static_cast<size_t>(options.seconds);
  return options.trace ? std::max<size_t>(1, n / 2) : n;
}

void PaperReports(Run& run) {
  std::unique_ptr<Engine> engine =
      run.SetUp(kPaperRows, kClosedLoopParallelism);
  const auto warmup = ReportStream(run, kReportWarmup);
  const auto stream =
      ReportStream(run, TimedCount(run.options(), kReportsPerSecond));

  run.spans().set_enabled(false);
  for (size_t i = 0; i < warmup.size(); ++i) {
    Report r = RunReport(*engine, run.spans(), warmup[i], -1);
    run.Op(r.ok);
    if (i < kReportChecks) CheckReport(run, *engine, r);
  }
  run.spans().set_enabled(run.options().trace);

  Timed t;
  t.Start();
  for (size_t i = 0; i < stream.size(); ++i) {
    TimedReport(run, *engine, t, stream[i], static_cast<int64_t>(i));
  }
  t.Stop();
  run.Finish(*engine, t, kClosedLoopParallelism + 1);
}

// ---- fact_cube ----------------------------------------------------------

// WITH CUBE over base-level B and C at ' or '', optionally A at ' or '',
// sliced by one of D's seven top members. No Table 1 view holds base-level
// B, so every cube scans the fact table once and rolls the rest up.
std::vector<std::string> CubeStream(Run& run, const StarSchema& schema,
                                    size_t n) {
  const starshare::Hierarchy& d = schema.dim(3);
  const int top = d.num_levels() - 1;
  std::vector<std::string> out;
  for (size_t i = 0; i < n; ++i) {
    const int c_level = 1 + static_cast<int>(run.rng()() % 2);
    const int a_level = static_cast<int>(run.rng()() % 3);  // 0 = absent
    const int32_t d_member = static_cast<int32_t>(
        run.rng()() % d.cardinality(top));
    std::string text = "{B.MEMBERS} ON COLUMNS {C" +
                       std::string(static_cast<size_t>(c_level), '\'') +
                       ".MEMBERS} ON ROWS ";
    if (a_level > 0) {
      text += "{A" + std::string(static_cast<size_t>(a_level), '\'') +
              ".MEMBERS} ON PAGES ";
    }
    text += "CONTEXT ABCD FILTER (" + d.PrimedLevelName(top) + "." +
            d.MemberName(top, d_member) + ") WITH CUBE;";
    run.stream_digest().Add(text);
    out.push_back(std::move(text));
  }
  return out;
}

struct CubeRun {
  CubeQuery cube;
  CubeExecution exec;
  IoStats io;
  double ms = 0;
  bool ok = false;
};

CubeRun RunCube(Engine& engine, SpanLog& spans, const std::string& text,
                int64_t request) {
  CubeRun r;
  const int64_t t0 = NowNs();
  {
    ScopedSpan req(spans, "request", request);
    starshare::Result<CubeQuery> cube = [&] {
      ScopedSpan span(spans, "mdx.parse", request);
      return engine.ParseCube(text);
    }();
    if (cube.ok()) {
      r.cube = std::move(cube.value());
      ScopedSpan span(spans, "exec.execute", request);
      auto exec = engine.ExecuteCube(r.cube, OptimizerKind::kGlobalGreedy);
      if (exec.ok()) {
        r.exec = std::move(exec.value());
        r.ok = std::all_of(r.exec.results.begin(), r.exec.results.end(),
                           Clean);
      }
    }
  }
  r.ms = static_cast<double>(NowNs() - t0) / 1e6;
  r.io = engine.ConsumeIoStats();
  return r;
}

// Every lattice level against ExecuteNaive on the cube's expanded levels.
void CheckCube(Run& run, Engine& engine, const CubeRun& r) {
  if (!r.ok) return;
  auto levels = r.cube.ExpandLevels(engine.schema(), /*first_id=*/1);
  if (!levels.ok()) {
    run.Mismatch("cube levels do not expand: " + levels.status().ToString());
    return;
  }
  const std::vector<ExecutedQuery> naive = engine.ExecuteNaive(levels.value());
  engine.ConsumeIoStats();
  if (naive.size() != r.exec.results.size()) {
    run.Mismatch("cube level count differs from ExecuteNaive");
    return;
  }
  for (const ExecutedQuery& got : r.exec.results) {
    const auto want =
        std::find_if(naive.begin(), naive.end(), [&](const auto& n) {
          return n.query->target() == got.query->target();
        });
    if (want == naive.end() || !Clean(*want) ||
        !SameResult(got.result, want->result)) {
      run.Mismatch("cube level " + got.query->label() +
                   " differs from ExecuteNaive");
    }
  }
}

void FactCube(Run& run) {
  std::unique_ptr<Engine> engine =
      run.SetUp(kPaperRows, kClosedLoopParallelism);
  const auto warmup = CubeStream(run, engine->schema(), kCubeWarmup);
  const auto stream = CubeStream(run, engine->schema(),
                                 TimedCount(run.options(), kCubesPerSecond));

  run.spans().set_enabled(false);
  for (size_t i = 0; i < warmup.size(); ++i) {
    CubeRun r = RunCube(*engine, run.spans(), warmup[i], -1);
    run.Op(r.ok);
    if (i < kCubeChecks) CheckCube(run, *engine, r);
  }
  run.spans().set_enabled(run.options().trace);

  Timed t;
  t.Start();
  for (size_t i = 0; i < stream.size(); ++i) {
    TimedRequest(run, t, [&] {
      CubeRun r = RunCube(*engine, run.spans(), stream[i],
                          static_cast<int64_t>(i));
      run.Op(r.ok);
      ++t.executions;
      t.read_io += r.io;
      AddPages(run.pages_digest(), r.io);
      t.base_levels += r.exec.lattice.NumBase();
      t.rollup_levels += r.exec.lattice.NumRollups();
      for (const ExecutedQuery& q : r.exec.results) {
        t.rows_out += q.result.num_rows();
      }
      return r.ms;
    });
  }
  t.Stop();
  run.Finish(*engine, t, kClosedLoopParallelism + 1);
}

// ---- append_refresh -------------------------------------------------------

// SUM over the fact table's columns for `q`, computed here rather than by
// any engine operator: filter by the query's predicate at base level, map
// each retained dimension up to its target level, fold the measure.
QueryResult AggregateFromFacts(const Engine& engine,
                               const DimensionalQuery& q) {
  const StarSchema& schema = engine.schema();
  const starshare::Table& fact = engine.base_view()->table();
  const std::vector<size_t> dims = q.target().RetainedDims(schema);
  std::map<std::vector<int32_t>, double> groups;
  std::vector<int32_t> row_keys(schema.num_dims());
  for (uint64_t row = 0; row < fact.num_rows(); ++row) {
    for (size_t d = 0; d < schema.num_dims(); ++d) {
      row_keys[d] = fact.key(d, row);
    }
    bool pass = true;
    for (const starshare::DimPredicate& p : q.predicate().conjuncts()) {
      if (!p.Matches(schema.dim(p.dim), 0, row_keys[p.dim])) {
        pass = false;
        break;
      }
    }
    if (!pass) continue;
    std::vector<int32_t> key;
    key.reserve(dims.size());
    for (size_t d : dims) {
      key.push_back(schema.dim(d).MapUp(0, q.target().level(d), row_keys[d]));
    }
    groups[key] += fact.measure(row);
  }
  QueryResult out(q.target(), q.agg());
  for (const auto& [key, value] : groups) out.AddRow(key, value);
  return out;
}

// After the last append: a report of all nine queries, answered from the
// refreshed views, against the benchmark's own aggregation of the facts.
void CheckAfterAppends(Run& run, Engine& engine) {
  Report r = RunReport(engine, run.spans(), {1, 2, 3, 4, 5, 6, 7, 8, 9}, -1);
  run.Op(r.ok);
  if (!r.ok) {
    run.Mismatch("final report failed");
    return;
  }
  size_t from_views = 0;
  for (const starshare::ClassPlan& cls : r.plan.classes) {
    if (cls.base != engine.base_view()) from_views += cls.members.size();
  }
  if (from_views == 0) run.Mismatch("final report read no view");
  for (const ExecutedQuery& got : r.results) {
    if (got.query->agg() != starshare::AggOp::kSum ||
        !SameResult(got.result, AggregateFromFacts(engine, *got.query))) {
      run.Mismatch("after appends, " + got.query->label() +
                   " differs from the fact-table aggregation");
    }
  }
}

struct Cycle {
  DataGeneratorConfig delta;
  std::vector<std::vector<int>> reports;
};

std::vector<Cycle> CycleStream(Run& run, size_t n) {
  std::vector<Cycle> out;
  for (size_t i = 0; i < n; ++i) {
    Cycle c;
    c.delta = DataGeneratorConfig{.num_rows = kAppendDeltaRows,
                                  .seed = run.rng()(),
                                  .integer_measures = true};
    run.stream_digest().Add(c.delta.seed);
    c.reports = ReportStream(run, kReportsPerCycle);
    out.push_back(std::move(c));
  }
  return out;
}

void AppendRefresh(Run& run) {
  std::unique_ptr<Engine> engine =
      run.SetUp(kAppendRows, kClosedLoopParallelism);
  const auto warmup = CycleStream(run, kAppendWarmupCycles);
  const size_t cycles = std::max<size_t>(
      1, kCyclesPerSecond * static_cast<size_t>(run.options().seconds));
  const auto stream = CycleStream(run, cycles);

  run.spans().set_enabled(false);
  for (const Cycle& c : warmup) {
    run.Op(engine->AppendFacts(c.delta).ok());
    engine->ConsumeIoStats();
    for (const auto& ids : c.reports) {
      Report r = RunReport(*engine, run.spans(), ids, -1);
      run.Op(r.ok);
      CheckReport(run, *engine, r);
    }
  }
  run.spans().set_enabled(run.options().trace);

  // A traced run keeps every append (the data must grow identically) and
  // pairs each report untraced/traced like the other workloads.
  Timed t;
  t.Start();
  int64_t request = 0;
  for (const Cycle& c : stream) {
    const int64_t t0 = NowNs();
    starshare::Status st;
    {
      ScopedSpan span(run.spans(), "view.append", request);
      st = engine->AppendFacts(c.delta);
    }
    t.append_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
    run.Op(st.ok());
    const IoStats io = engine->ConsumeIoStats();
    t.append_io += io;
    AddPages(run.pages_digest(), io);
    for (const auto& ids : c.reports) {
      TimedReport(run, *engine, t, ids, request++);
    }
  }
  t.Stop();
  run.spans().set_enabled(false);
  CheckAfterAppends(run, *engine);
  run.spans().set_enabled(run.options().trace);
  run.Finish(*engine, t, kClosedLoopParallelism + 1);
}

// ---- server_reports -------------------------------------------------------

// Reference results of the nine paper queries, computed with synchronous
// Execute before the server starts.
std::map<int, QueryResult> ReferenceResults(Engine& engine) {
  std::map<int, QueryResult> reference;
  for (int q = 1; q <= PaperWorkload::kNumQueries; ++q) {
    const std::vector<DimensionalQuery> one = {
        PaperWorkload::MakeQuery(engine, q)};
    const GlobalPlan plan = engine.Optimize(one, OptimizerKind::kGlobalGreedy);
    const std::vector<ExecutedQuery> res = engine.Execute(plan);
    if (res.size() != 1 || !Clean(res[0])) {
      throw std::runtime_error("reference Execute failed for query " +
                               std::to_string(q));
    }
    reference[q] = res[0].result;
  }
  engine.ConsumeIoStats();
  return reference;
}

struct ServerReport {
  std::vector<QueryOutcome> outcomes;
  double ms = 0;
  int64_t queue_depth = 0;  // server.queue_depth right after submission
  bool ok = false;
};

// One report through the query server: ParseMdx per component, one
// SubmitBatch (so the components reach one admission round and are planned
// together), then Await every handle.
ServerReport RunServerReport(Engine& engine, Session& session, SpanLog& spans,
                             const std::vector<int>& ids, int64_t request) {
  ServerReport r;
  std::vector<DimensionalQuery> queries;
  const int64_t t0 = NowNs();
  {
    ScopedSpan req(spans, "request", request);
    queries = ParseReport(engine, spans, ids, request);
    ScopedSpan span(spans, "server.batch", request);
    std::vector<QueryHandle> handles = session.SubmitBatch(queries);
    r.queue_depth =
        starshare::obs::Metrics().gauge("server.queue_depth").value();
    for (QueryHandle& h : handles) r.outcomes.push_back(h.Await());
  }
  r.ms = static_cast<double>(NowNs() - t0) / 1e6;
  r.ok = queries.size() == ids.size() && r.outcomes.size() == ids.size() &&
         std::all_of(r.outcomes.begin(), r.outcomes.end(),
                     [](const QueryOutcome& o) { return o.ok() && !o.degraded; });
  return r;
}

// Checks every outcome of a clean report against the synchronous result of
// its paper query.
void CheckServerOutcomes(Run& run, const std::vector<QueryOutcome>& outcomes,
                         const std::vector<int>& ids,
                         const std::map<int, QueryResult>& reference) {
  for (size_t j = 0; j < ids.size(); ++j) {
    if (!SameResult(outcomes[j].result, reference.at(ids[j]))) {
      run.Mismatch("server outcome of paper query " + std::to_string(ids[j]) +
                   " differs from synchronous Execute");
    }
  }
}

void ServerReports(Run& run) {
  std::unique_ptr<Engine> engine = run.SetUp(kPaperRows, kServerParallelism);
  const std::map<int, QueryResult> reference = ReferenceResults(*engine);
  const auto warmup = ReportStream(run, kServerWarmup);
  const auto stream =
      ReportStream(run, TimedCount(run.options(), kServerReportsPerSecond));

  Session session = engine->OpenSession();
  run.spans().set_enabled(false);
  for (const auto& ids : warmup) {
    ServerReport r = RunServerReport(*engine, session, run.spans(), ids, -1);
    run.Op(r.ok);
    if (r.ok) CheckServerOutcomes(run, r.outcomes, ids, reference);
  }
  // The server is idle between reports: every handle has completed.
  engine->ConsumeIoStats();
  run.spans().set_enabled(run.options().trace);

  starshare::QueryServer& server = engine->server();
  const uint64_t admitted0 = server.admitted();
  const uint64_t opened0 = server.classes_opened();
  int64_t max_queue_depth = 0;
  // Outcomes are checked after the timed region.
  std::vector<std::pair<size_t, std::vector<QueryOutcome>>> executed;
  Timed t;
  t.Start();
  for (size_t i = 0; i < stream.size(); ++i) {
    TimedRequest(run, t, [&] {
      ServerReport r = RunServerReport(*engine, session, run.spans(),
                                       stream[i], static_cast<int64_t>(i));
      run.Op(r.ok);
      ++t.executions;
      const IoStats io = engine->ConsumeIoStats();
      t.read_io += io;
      AddPages(run.pages_digest(), io);
      max_queue_depth = std::max(max_queue_depth, r.queue_depth);
      for (const QueryOutcome& o : r.outcomes) {
        t.rows_out += o.result.num_rows();
      }
      if (r.ok) executed.emplace_back(i, std::move(r.outcomes));
      return r.ms;
    });
  }
  t.Stop();
  for (const auto& [i, outcomes] : executed) {
    CheckServerOutcomes(run, outcomes, stream[i], reference);
  }
  run.Finish(*engine, t, kServerParallelism + 2);

  const double execs = static_cast<double>(t.executions);
  const uint64_t admitted = server.admitted() - admitted0;
  const uint64_t opened = server.classes_opened() - opened0;
  std::map<std::string, double>& layer = run.result().per_layer;
  layer["server.admitted"] = static_cast<double>(admitted) / execs;
  layer["server.classes_opened"] = static_cast<double>(opened) / execs;
  layer["server.shared_hit_rate"] =
      admitted > 0 ? static_cast<double>(admitted - opened) /
                         static_cast<double>(admitted)
                   : 0.0;
  layer["server.segments"] = t.Delta("server.segments") / execs;
  layer["server.queue_depth.max"] = static_cast<double>(max_queue_depth);
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {
      "paper_reports", "fact_cube", "append_refresh", "server_reports"};
  return kNames;
}

RunResult RunWorkload(const Options& options) {
  Run run(options);
  run.result().stamps["seed"] = std::to_string(options.seed);
  if (options.workload == "paper_reports") {
    PaperReports(run);
  } else if (options.workload == "fact_cube") {
    FactCube(run);
  } else if (options.workload == "append_refresh") {
    AppendRefresh(run);
  } else if (options.workload == "server_reports") {
    ServerReports(run);
  } else {
    throw std::runtime_error("unknown workload " + options.workload);
  }
  run.WriteSpans();
  return run.result();
}

}  // namespace perfbench
