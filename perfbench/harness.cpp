// End-to-end benchmark harness: runs the real WGS pipeline
// (core::run_wgs_pipeline on an exec::make_backend backend) over generated
// inputs in a closed loop — one pipeline run at a time — and checks every
// VCF it writes.
//
//   gpf_perfbench --inputs DIR --work DIR --seconds S
//       [--backend {inprocess,spill,distributed}] [--store-budget BYTES]
//       [--trace 0|1]
//       [--reference PATH | --reference-out PATH | --setup-probe 1]
//       [--min-snp_recall F] [--min-snp_precision F] [--min-indel_recall F]
//       [--min-indel_precision F]
//
// Each run parses the inputs and builds its backend (set-up), runs the
// pipeline and writes the VCF (wall), reads the worker processes' peak
// resident sets, then tears the backend down so the workers are reaped and
// their CPU time counted.  The first run is an untimed warm-up; its VCF is
// the reference unless --reference names an in-process VCF to match.  --reference-out runs once in-process, writes the
// VCF there and exits.  --setup-probe times one set-up (setup_s) and exits:
// set-up time depends on the process it runs in, so it is sampled across
// fresh processes, as a user running the tool pays it.  With --trace 1,
// half the time runs untraced, one run records the engine's spans, one
// single-threaded run gives the backend counters, a single-threaded layer
// replay follows (replay.hpp), and the timelines go to DIR/trace.json.
//
// The last line of stdout is one JSON object: correct / attempted / failed,
// the metrics with units, and an "info" block describing the host.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "accuracy.hpp"
#include "common/simd.hpp"
#include "common/timer.hpp"
#include "common/trace.hpp"
#include "core/file_io.hpp"
#include "core/wgs_pipeline.hpp"
#include "exec/backend_factory.hpp"
#include "exec/distributed_backend.hpp"
#include "replay.hpp"

using namespace gpf;

namespace {

/// Timed runs per invocation never drop below this, whatever --seconds is.
constexpr int kMinTimedRuns = 3;
/// gpf_worker processes behind the distributed backend.
constexpr int kWorkers = 2;

/// Processes whose per-Process wall times are reported (core.<name>.wall_s).
const char* const kProcesses[] = {"MyBwaMapping",        "MySort",
                                  "MyMarkDuplicate",     "MyIndelRealign",
                                  "MyBaseRecalibration", "MyHaplotypeCaller"};
/// Processes whose task skew is reported (engine.task_p95_over_p50.<name>).
const char* const kSkewProcesses[] = {"MyBwaMapping", "MyIndelRealign",
                                      "MyHaplotypeCaller"};

struct Args {
  std::string inputs;
  std::string work;
  exec::BackendKind backend = exec::BackendKind::kInProcess;
  std::size_t store_budget = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string reference;
  std::string reference_out;
  bool setup_probe = false;
  /// Accuracy floors (snp_recall, snp_precision, indel_recall,
  /// indel_precision): a VCF below any of them is wrong even if stable.
  std::map<std::string, double> floors;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value: " + key);
    const std::string value = argv[++i];
    if (key == "--inputs") a.inputs = value;
    else if (key == "--work") a.work = value;
    else if (key == "--backend") a.backend = exec::parse_backend_kind(value);
    else if (key == "--store-budget") a.store_budget = std::stoull(value);
    else if (key == "--seconds") a.seconds = std::stod(value);
    else if (key == "--trace") a.trace = value == "1";
    else if (key == "--reference") a.reference = value;
    else if (key == "--reference-out") a.reference_out = value;
    else if (key == "--setup-probe") a.setup_probe = value == "1";
    else if (key.starts_with("--min-")) a.floors[key.substr(6)] = std::stod(value);
    else throw std::invalid_argument("unknown flag: " + key);
  }
  if (a.inputs.empty() || a.work.empty()) {
    throw std::invalid_argument("--inputs and --work are required");
  }
  return a;
}

double cpu_seconds(int who) {
  rusage u{};
  getrusage(who, &u);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(u.ru_utime) + tv(u.ru_stime);
}

/// Peak resident set (VmHWM) of a live process, in MB.
double peak_rss_mb_of(pid_t pid) {
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.starts_with("VmHWM:")) return std::stod(line.substr(6)) / 1024.0;
  }
  throw std::runtime_error("no VmHWM for pid " + std::to_string(pid));
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct Inputs {
  Reference reference;
  std::vector<FastqPair> pairs;
  std::vector<VcfRecord> known;
  double parse_s = 0.0;
  double bytes = 0.0;
};

Inputs parse_inputs(const std::string& dir) {
  Inputs in;
  Timer t;
  in.reference = core::load_fasta_file(dir + "/ref.fa");
  in.pairs = core::load_fastq_pair_files(dir + "/reads_1.fastq",
                                         dir + "/reads_2.fastq");
  in.known = core::load_vcf_file(dir + "/known.vcf").records;
  in.parse_s = t.seconds();
  for (const char* f : {"/ref.fa", "/reads_1.fastq", "/reads_2.fastq",
                        "/known.vcf"}) {
    in.bytes += static_cast<double>(std::filesystem::file_size(dir + f));
  }
  return in;
}

/// Parsed inputs plus a live backend: everything a run needs before the
/// pipeline starts.
struct Setup {
  Inputs in;
  std::unique_ptr<core::ExecutionBackend> backend;
  double seconds = 0.0;
};

Setup set_up(const exec::BackendSpec& spec, const std::string& inputs) {
  Timer t;
  Setup s{parse_inputs(inputs), nullptr, 0.0};
  s.backend = exec::make_backend(spec);
  s.seconds = t.seconds();
  return s;
}

/// One pipeline run and what the benchmark reads off it.
struct Run {
  double parse_s = 0.0;
  double parse_mb_per_s = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  /// Summed peak resident sets of the gpf_worker processes (0 off the
  /// distributed backend).
  double workers_peak_rss_mb = 0.0;
  std::string vcf;
  std::vector<VcfRecord> variants;
  core::PipelineReport report;
  std::size_t final_partitions = 0;
  std::size_t stages = 0;
  std::size_t tasks = 0;
  double task_busy_s = 0.0;
  double shuffle_bytes = 0.0;
};

Run run_once(const exec::BackendSpec& spec, const std::string& inputs,
             const std::string& vcf_path) {
  Run r;
  const double children_before = cpu_seconds(RUSAGE_CHILDREN);
  Setup setup = set_up(spec, inputs);
  Inputs& in = setup.in;
  std::unique_ptr<core::ExecutionBackend>& backend = setup.backend;
  r.parse_s = in.parse_s;
  r.parse_mb_per_s = in.bytes / 1e6 / in.parse_s;

  // gpf_tool pipeline's shipped configuration.
  core::PipelineConfig config;
  config.partition_length = std::max<std::int64_t>(
      10'000, static_cast<std::int64_t>(in.reference.total_length() / 16));
  VcfHeader header;
  for (const auto& c : in.reference.contigs()) {
    header.contigs.push_back(
        {c.name, static_cast<std::int64_t>(c.sequence.size())});
  }

  const double self_before = cpu_seconds(RUSAGE_SELF);
  Timer wall;
  core::WgsResult result = core::run_wgs_pipeline(
      *backend, in.reference, std::move(in.pairs), std::move(in.known),
      config);
  r.vcf = write_vcf(header, result.variants);
  core::write_file(vcf_path, r.vcf);
  r.wall_s = wall.seconds();
  r.cpu_s = cpu_seconds(RUSAGE_SELF) - self_before;

  r.variants = std::move(result.variants);
  r.report = std::move(result.report);
  r.final_partitions = result.final_partitions;
  const engine::EngineMetrics& metrics = backend->engine().metrics();
  r.stages = metrics.stage_count();
  for (const auto& s : metrics.stages()) r.tasks += s.task_count;
  r.task_busy_s = metrics.total_compute_seconds();
  r.shuffle_bytes = static_cast<double>(metrics.total_shuffle_bytes());
  if (auto* d = dynamic_cast<exec::DistributedBackend*>(backend.get())) {
    const runtime::WorkerPool& pool = d->worker_pool();
    for (int w = 0; w < static_cast<int>(pool.size()); ++w) {
      const runtime::WorkerInfo worker = pool.info(w);
      if (worker.alive) r.workers_peak_rss_mb += peak_rss_mb_of(worker.pid);
    }
  }
  backend.reset();  // reaps worker processes, so their CPU is counted
  r.cpu_s += cpu_seconds(RUSAGE_CHILDREN) - children_before;
  return r;
}

struct Metric {
  double value = 0.0;
  const char* unit = "";
};

/// Per-layer values read off one pipeline run's report and engine.
std::map<std::string, Metric> pipeline_layers(const Run& r,
                                              std::size_t threads,
                                              bool distributed) {
  std::map<std::string, Metric> m;
  for (const char* p : kProcesses) {
    m[std::string("core.") + p + ".wall_s"] = {0.0, "s"};
  }
  core::BackendStageStats b;
  for (const auto& t : r.report.timings) {
    const std::string key = "core." + t.name + ".wall_s";
    if (m.count(key) != 0) m[key].value = t.wall_seconds;
    for (const char* p : kSkewProcesses) {
      if (t.name == p) {
        m[std::string("engine.task_p95_over_p50.") + p] = {
            t.task_p50_ms > 0.0 ? t.task_p95_ms / t.task_p50_ms : 0.0,
            "ratio"};
      }
    }
    b.blocks_put += t.backend.blocks_put;
    b.blocks_fetched += t.backend.blocks_fetched;
    b.bytes_put += t.backend.bytes_put;
    b.bytes_fetched += t.backend.bytes_fetched;
    b.bytes_spilled += t.backend.bytes_spilled;
    b.lineage_recoveries += t.backend.lineage_recoveries;
    b.residency_hits += t.backend.residency_hits;
    b.residency_misses += t.backend.residency_misses;
    b.residency_evictions += t.backend.residency_evictions;
  }
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  m["engine.stages"] = {d(r.stages), "count"};
  m["engine.tasks"] = {d(r.tasks), "count"};
  m["engine.task_busy_s"] = {r.task_busy_s, "s"};
  m["engine.idle_frac"] = {
      1.0 - r.task_busy_s / (static_cast<double>(threads) * r.wall_s), "frac"};
  m["engine.shuffle_bytes"] = {r.shuffle_bytes, "B"};
  m["sched.final_partitions"] = {d(r.final_partitions), "count"};
  m["store.bytes_spilled"] = {d(b.bytes_spilled), "B"};
  m["store.residency_hits"] = {d(b.residency_hits), "count"};
  m["store.residency_misses"] = {d(b.residency_misses), "count"};
  m["store.residency_evictions"] = {d(b.residency_evictions), "count"};
  const double lookups = d(b.residency_hits + b.residency_misses);
  m["store.hit_ratio"] = {lookups > 0 ? d(b.residency_hits) / lookups : 0.0,
                          "frac"};
  m["exec.lineage_recoveries"] = {d(b.lineage_recoveries), "count"};
  // The worker runtime's traffic: blocks that crossed the wire.  A spilling
  // transport also "puts" blocks, but into chunk files (store.*), so these
  // stay zero off the distributed backend.
  m["runtime.blocks_put"] = {distributed ? d(b.blocks_put) : 0.0, "count"};
  m["runtime.blocks_fetched"] = {distributed ? d(b.blocks_fetched) : 0.0,
                                 "count"};
  m["runtime.bytes_put"] = {distributed ? d(b.bytes_put) : 0.0, "B"};
  m["runtime.bytes_fetched"] = {distributed ? d(b.bytes_fetched) : 0.0, "B"};
  m["formats.parse_s"] = {r.parse_s, "s"};
  m["formats.parse_mb_per_s"] = {r.parse_mb_per_s, "MB/s"};
  return m;
}

/// Median of each per-layer value over several runs.
std::map<std::string, Metric> median_layers(
    const std::vector<std::map<std::string, Metric>>& runs) {
  std::map<std::string, Metric> out;
  if (runs.empty()) return out;
  for (const auto& [name, metric] : runs.front()) {
    std::vector<double> values;
    for (const auto& run : runs) values.push_back(run.at(name).value);
    out[name] = {median(values), metric.unit};
  }
  return out;
}

const char* replay_unit(const std::string& name) {
  if (name.ends_with("_mb_per_s")) return "MB/s";
  if (name.ends_with("_s")) return "s";
  if (name.ends_with("_ms")) return "ms";
  if (name.ends_with("_frac")) return "frac";
  if (name.ends_with("_ratio")) return "ratio";
  return "count";
}

void print_json(bool correct, int attempted, int failed,
                const std::map<std::string, Metric>& metrics,
                const std::map<std::string, std::string>& info) {
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  const char* sep = "";
  for (const auto& [name, m] : metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                name.c_str(), m.value, m.unit);
    sep = ", ";
  }
  std::printf("}, \"info\": {");
  sep = "";
  for (const auto& [key, value] : info) {
    std::printf("%s\"%s\": \"%s\"", sep, key.c_str(), value.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gpf_perfbench: %s\n", e.what());
    return 2;
  }
  const std::size_t nproc =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const std::size_t threads = std::min<std::size_t>(4, nproc);

  exec::BackendSpec spec;
  spec.kind = args.backend;
  spec.engine.worker_threads = threads;
  spec.store_budget = args.store_budget;
  spec.spill_directory = args.work + "/spill";
  spec.workers = kWorkers;
  spec.worker_binary = GPF_WORKER_BIN;
  exec::BackendSpec inprocess = spec;
  inprocess.kind = exec::BackendKind::kInProcess;

  std::map<std::string, std::string> info = {
      {"backend", exec::backend_kind_name(args.backend)},
      {"nproc", std::to_string(nproc)},
      {"engine_threads", std::to_string(threads)},
      {"simd", simd::level_name(simd::active_level())},
  };
  const std::string vcf_path = args.work + "/out.vcf";

  if (args.setup_probe) {
    try {
      const double seconds = set_up(spec, args.inputs).seconds;
      print_json(true, 0, 0, {{"setup_s", {seconds, "s"}}}, info);
      return 0;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "set-up failed: %s\n", e.what());
      return 1;
    }
  }
  if (!args.reference_out.empty()) {
    try {
      const Run r = run_once(inprocess, args.inputs, args.reference_out);
      info["wall_s"] = std::to_string(r.wall_s);
      print_json(true, 1, 0, {}, info);
      return 0;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "reference run failed: %s\n", e.what());
      print_json(false, 1, 1, {}, info);
      return 1;
    }
  }

  int attempted = 0;
  int failed = 0;
  std::optional<std::string> reference;
  if (!args.reference.empty()) {
    try {
      reference = core::read_file(args.reference);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 2;
    }
  }
  // Runs one pipeline on the workload's backend and checks its VCF; a
  // throw or a VCF that differs from the reference fails the run.
  const auto attempt = [&](const exec::BackendSpec& on) -> std::optional<Run> {
    ++attempted;
    try {
      Run r = run_once(on, args.inputs, vcf_path);
      if (!reference) reference = r.vcf;
      if (r.vcf == *reference) return r;
      std::fprintf(stderr, "run %d: VCF differs from the reference\n",
                   attempted);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "run %d failed: %s\n", attempted, e.what());
    }
    ++failed;
    return std::nullopt;
  };

  // Warm-up: untimed; its variants are the ones scored for accuracy.
  const std::optional<Run> warm = attempt(spec);
  if (!warm) {
    print_json(false, attempted, failed, {}, info);
    return 1;
  }
  const perfbench::Accuracy acc = perfbench::score_calls(
      core::load_vcf_file(args.inputs + "/truth.vcf").records, warm->variants);

  // Closed loop: start another run while it is expected to finish in time.
  const double budget = args.trace ? 0.5 * args.seconds : args.seconds;
  std::vector<Run> runs;
  std::vector<double> run_seconds;
  Timer loop;
  while (attempted - 1 < kMinTimedRuns ||
         loop.seconds() + median(run_seconds) <= budget) {
    Timer one;
    if (std::optional<Run> r = attempt(spec)) runs.push_back(std::move(*r));
    run_seconds.push_back(one.seconds());
  }
  if (runs.empty()) {
    print_json(false, attempted, failed, {}, info);
    return 1;
  }
  // The driver's lifetime peak plus the workers' summed peaks in the run
  // where they were highest: an upper bound, as the peaks need not coincide.
  rusage self{};
  getrusage(RUSAGE_SELF, &self);
  double workers_peak_rss_mb = 0.0;
  for (const Run& r : runs) {
    workers_peak_rss_mb = std::max(workers_peak_rss_mb, r.workers_peak_rss_mb);
  }
  const double peak_rss_mb =
      static_cast<double>(self.ru_maxrss) / 1024.0 + workers_peak_rss_mb;
  info["workers_peak_rss_mb"] = std::to_string(workers_peak_rss_mb);
  info["timed_runs"] = std::to_string(runs.size());
  std::string walls;
  for (const Run& r : runs) {
    walls += (walls.empty() ? "" : " ") + std::to_string(r.wall_s);
  }
  info["wall_s_per_run"] = walls;

  std::map<std::string, Metric> metrics;
  const auto collect = [&runs](double Run::*field) {
    std::vector<double> v;
    for (const Run& r : runs) v.push_back(r.*field);
    return median(v);
  };
  const std::map<std::string, double> accuracy = {
      {"snp_recall", acc.snp.recall()},
      {"snp_precision", acc.snp.precision()},
      {"indel_recall", acc.indel.recall()},
      {"indel_precision", acc.indel.precision()},
  };
  bool correct = failed == 0;
  for (const auto& [name, floor] : args.floors) {
    const auto it = accuracy.find(name);
    if (it == accuracy.end() || it->second < floor) {
      std::fprintf(stderr, "accuracy: %s below its floor %.3f\n",
                   name.c_str(), floor);
      correct = false;
    }
  }
  if (!args.trace) {
    metrics["wall_s"] = {collect(&Run::wall_s), "s"};
    metrics["cpu_s"] = {collect(&Run::cpu_s), "s"};
    metrics["peak_rss_mb"] = {peak_rss_mb, "MB"};
    for (const auto& [name, value] : accuracy) metrics[name] = {value, "frac"};
    print_json(correct, attempted, failed, metrics, info);
    return correct ? 0 : 1;
  }

  // --- traced run + layer replay -------------------------------------------
  const bool distributed = args.backend == exec::BackendKind::kDistributed;
  std::vector<std::map<std::string, Metric>> untraced;
  for (const Run& r : runs) {
    untraced.push_back(pipeline_layers(r, threads, distributed));
  }
  metrics = median_layers(untraced);

  auto& recorder = trace::TraceRecorder::global();
  recorder.clear();
  recorder.enable();
  std::optional<Run> traced = attempt(spec);
  recorder.disable();
  std::vector<trace::Span> spans = recorder.drain();
  if (!traced) {
    print_json(false, attempted, failed, metrics, info);
    return 1;
  }
  double ser_s = 0.0, deser_s = 0.0;
  for (const auto& s : spans) {
    if (s.kind == trace::SpanKind::kShuffleSer) ser_s += s.dur_us * 1e-6;
    if (s.kind == trace::SpanKind::kShuffleDeser) deser_s += s.dur_us * 1e-6;
  }
  metrics["engine.shuffle_ser_s"] = {ser_s, "s"};
  metrics["engine.shuffle_deser_s"] = {deser_s, "s"};
  metrics["trace.overhead_frac"] = {
      traced->wall_s / collect(&Run::wall_s) - 1.0, "frac"};

  // Backend counters from one single-threaded run: residency hits and
  // evictions depend on how tasks interleave, so only a serial run makes
  // them repeat exactly for a seed.
  exec::BackendSpec serial = spec;
  serial.engine.worker_threads = 1;
  const std::optional<Run> counted = attempt(serial);
  if (!counted) {
    print_json(false, attempted, failed, metrics, info);
    return 1;
  }
  for (const auto& [name, m] : pipeline_layers(*counted, 1, distributed)) {
    if (name.starts_with("store.") || name.starts_with("exec.") ||
        name.starts_with("runtime.")) {
      metrics[name] = m;
    }
  }

  try {
    Inputs in = parse_inputs(args.inputs);
    perfbench::ReplayResult replay =
        perfbench::replay_layers(in.reference, in.pairs, in.known);
    for (const auto& [name, value] : replay.metrics) {
      metrics[name] = {value, replay_unit(name)};
    }
    spans.insert(spans.end(), replay.spans.begin(), replay.spans.end());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "layer replay failed: %s\n", e.what());
    correct = false;
  }
  const std::string trace_path = args.work + "/trace.json";
  if (!trace::write_chrome_trace_file(trace_path, spans)) {
    std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
    correct = false;
  }
  info["trace_file"] = trace_path;

  std::fprintf(stderr, "\n%-44s %16s  %s\n", "per-layer metric", "value",
               "unit");
  for (const auto& [name, m] : metrics) {
    std::fprintf(stderr, "%-44s %16.6g  %s\n", name.c_str(), m.value, m.unit);
  }
  std::fprintf(stderr, "trace: %s (%zu spans; pipeline = pid 0, layer "
               "replay = pid %u) — open in https://ui.perfetto.dev\n",
               trace_path.c_str(), spans.size(), perfbench::kReplayPid);
  print_json(correct, attempted, failed, metrics, info);
  return correct ? 0 : 1;
}
