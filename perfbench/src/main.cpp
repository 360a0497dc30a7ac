// Benchmark driver: runs one workload for a fixed wall-clock budget and
// prints its metrics. See perfbench/run.py, which builds this program and is
// the command BENCHMARK.json names.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--out REPORT.json] [--results-dir DIR] [--reference-dir DIR]
//             [--scratch-dir DIR] [--git-describe TEXT]
//
// Untraced (--trace 0): an all-core spin, set-up timed several times, one
// discarded warm-up iteration, then back-to-back iterations (a closed loop
// of one caller) for S seconds. Prints the end-to-end metrics.
//
// Traced (--trace 1): the same untraced loop for S/2 seconds, then S/2
// seconds of iterations with spans (and the event-loop profiler where the
// driver has a hook), then the layer probes. Prints the per-layer metrics,
// including the tracing overhead (traced vs untraced iteration wall time).
// The fabric driver has no profiler hook, so on the fabric workloads the
// per-event rows (switchd/controller/net/sim) read 0.
//
// Iterations and set-up are timed in wall seconds; the report also keeps
// each one's process CPU seconds, which leave out time the hypervisor stole
// from the vCPUs.
//
// Every iteration's outputs are checked; the last stdout line is one JSON
// object {correct, attempted, failed, metrics}, and the exit code is
// non-zero when any check failed.
#include <sys/resource.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "obs/profiler.hpp"
#include "probes.hpp"
#include "report.hpp"
#include "util/cli.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
namespace obs = sdnbuf::obs;
using sdnbuf::util::Samples;

// Set-up is sampled until both floors are met. One sample is the mean of
// back-to-back set-ups over at least kSetupSampleSeconds, so microsecond
// set-ups are timed over the whole window too, not only in the first
// milliseconds after the spin, while the clock is still settling.
constexpr std::size_t kSetupMinRepetitions = 15;
constexpr double kSetupMinSeconds = 2.0;
constexpr double kSetupSampleSeconds = 1e-3;
constexpr double kSpinSeconds = 1.0;
constexpr std::size_t kMinIterations = 2;

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

// Refuses optimized-out or instrumented builds: their timings mean nothing.
bool build_is_benchmarkable(std::string& why) {
  bool sanitized = std::strstr(PERFBENCH_CXX_FLAGS, "-fsanitize") != nullptr;
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  sanitized = true;
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
  sanitized = true;
#endif
#endif
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    why = std::string("build type is '") + PERFBENCH_BUILD_TYPE + "', not Release";
    return false;
  }
  if (sanitized) {
    why = "sanitizer build";
    return false;
  }
  return true;
}

// Wakes every vCPU: idle ones are slow to reach full clock.
void spin_all_cores(double seconds) {
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  const unsigned n = std::max(1u, std::thread::hardware_concurrency());
  for (unsigned i = 0; i < n; ++i) {
    threads.emplace_back([&stop]() {
      volatile std::uint64_t x = 0;
      while (!stop.load(std::memory_order_relaxed)) x = x + 1;
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop = true;
  for (std::thread& t : threads) t.join();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// Per-layer attribution of the profiler's rows. Tags are component names:
// "<switch>:cpu" and "<switch>:bus" servers and the switch itself, the
// controller ("floodlight", "floodlight:cpu", "flow_monitor"), duplex-link
// directions ("<link>:fwd", "<link>:rev"), the control "channel", buffer
// reclamation, egress scheduling, traffic generation and "(untagged)".
struct LayerTimes {
  double switch_cpu_s = 0.0;
  std::uint64_t switch_cpu_events = 0;
  double controller_cpu_s = 0.0;
  std::uint64_t controller_cpu_events = 0;
  double link_s = 0.0;
  std::uint64_t link_events = 0;
};

bool ends_with(const std::string& s, const char* suffix) {
  const std::size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

LayerTimes attribute(const obs::EventLoopProfiler& profiler) {
  LayerTimes t;
  for (const obs::EventLoopProfiler::Row& row : profiler.table()) {
    if (ends_with(row.tag, ":cpu")) {
      if (row.tag.rfind("floodlight", 0) == 0) {
        t.controller_cpu_s += row.total_s;
        t.controller_cpu_events += row.events;
      } else {
        t.switch_cpu_s += row.total_s;
        t.switch_cpu_events += row.events;
      }
    } else if (ends_with(row.tag, ":fwd") || ends_with(row.tag, ":rev")) {
      t.link_s += row.total_s;
      t.link_events += row.events;
    }
  }
  return t;
}

double us_per(double seconds, std::uint64_t events) {
  return events == 0 ? 0.0 : seconds / static_cast<double>(events) * 1e6;
}

void write_metrics(JsonWriter& json, const std::vector<Metric>& metrics) {
  json.begin_object();
  for (const Metric& m : metrics) {
    json.key(m.name).begin_object().key("value").value(m.value).key("unit").value(m.unit);
    json.end_object();
  }
  json.end_object();
}

void write_samples(JsonWriter& json, const char* key, const Samples& xs) {
  json.key(key).begin_array();
  for (const double x : xs.values()) json.value(x);
  json.end_array();
}

// Times each layer probe on inputs shaped like `workload`.
std::vector<Metric> probe_metrics(Workload& workload, std::uint64_t seed, double seconds,
                                  unsigned jobs, SpanRecorder& spans) {
  const auto timed = [&spans](const char* name, auto probe) {
    auto span = spans.span(std::string("probe:") + name);
    return probe();
  };
  const FlowTableCost table = timed("switchd.flow_table", [&] {
    return probe_flow_table(workload.flow_table_occupancy());
  });
  return {
      {"switchd.flow_table.add_us", table.add_us, "us"},
      {"switchd.flow_table.lookup_hit_us", table.lookup_hit_us, "us"},
      {"switchd.flow_table.lookup_miss_us", table.lookup_miss_us, "us"},
      {"switchd.buffer.store_release_us",
       timed("switchd.buffer", probe_buffer_store_release_us), "us"},
      {"switchd.flowbuf.burst_release_us",
       timed("switchd.flowbuf", probe_flowbuf_burst_release_us), "us"},
      {"switchd.mmu.admit_release_ns",
       workload.runs_mmu() ? timed("switchd.mmu", probe_mmu_admit_release_ns) : 0.0, "ns"},
      {"sim.probe_sched_ns", timed("sim", probe_scheduler_ns), "ns"},
      {"openflow.encode_pktin_128b_us",
       timed("openflow.encode_128", [] { return probe_encode_pktin_us(128); }), "us"},
      {"openflow.encode_pktin_1000b_us",
       timed("openflow.encode_1000", [] { return probe_encode_pktin_us(1000); }), "us"},
      {"openflow.decode_flowmod_us", timed("openflow.decode", probe_decode_flowmod_us), "us"},
      {"topo.route_path_us", timed("topo", probe_route_path_us), "us"},
      {"core.sweep_speedup",
       timed("core.sweep_speedup",
             [&] { return workload.sweep_speedup(seed, jobs).value_or(0.0); }),
       "x"},
      {"obs.overhead_pct",
       timed("obs.overhead",
             [&] { return workload.telemetry_overhead_pct(seed, seconds / 4).value_or(0.0); }),
       "%"},
  };
}

// One benchmark run: the iterations, their checks, and the metrics.
class Run {
 public:
  Run(Workload& workload, std::uint64_t seed, double seconds, bool trace, References refs)
      : workload_(workload), seed_(seed), seconds_(seconds), trace_(trace),
        refs_(std::move(refs)), spans_(trace) {}

  // Set-up, several times after waking every core (set-up is timed too),
  // then one discarded warm-up iteration. Where outputs are committed, the
  // warm-up runs their seed and is checked against them.
  void set_up() {
    spin_all_cores(kSpinSeconds);
    const auto start = Clock::now();
    while (setup_walls_.count() < kSetupMinRepetitions ||
           seconds_since(start) < kSetupMinSeconds) {
      auto span = spans_.span("setup");
      const Stopwatch watch;
      std::size_t n = 0;
      do {
        workload_.setup(spans_);
        spans_.set_enabled(false);  // layer spans for the first set-up only
        ++n;
      } while (watch.wall_s() < kSetupSampleSeconds);
      spans_.set_enabled(trace_);
      setup_walls_.add(watch.wall_s() / static_cast<double>(n));
      setup_cpus_.add(watch.cpu_s() / static_cast<double>(n));
    }
    auto span = spans_.span("warm_up");
    const std::optional<std::uint64_t> reference = workload_.reference_seed();
    Outcome o = workload_.run(reference.value_or(seed_), spans_, nullptr);
    if (reference) workload_.check_reference(refs_, o);
    warm_up_digest_ = o.digest;
    tally(o);
  }

  // Back-to-back iterations without spans or profiler: the end-to-end
  // timings. Every iteration must reproduce the first one's outputs.
  void untraced_loop(double budget_s) {
    spans_.set_enabled(false);
    const auto start = Clock::now();
    while (walls_.count() < kMinIterations || seconds_since(start) < budget_s) {
      const Stopwatch watch;
      Outcome o = workload_.run(seed_, spans_, nullptr);
      cpus_.add(watch.cpu_s());
      walls_.add(watch.wall_s());
      if (walls_.count() == 1) {
        first_ = o;
      } else if (o.digest != first_.digest) {
        o.failures.push_back("iteration " + std::to_string(walls_.count()) + " digest " +
                             o.digest + " != first iteration's " + first_.digest);
      }
      tally(o);
    }
    spans_.set_enabled(trace_);
  }

  // Iterations with spans and a fresh profiler each (the last is kept), the
  // sequential profiled pass where the iterations run in parallel, then the
  // layer probes.
  void traced_loop(double budget_s, unsigned jobs) {
    Outcome layer = first_;
    const auto start = Clock::now();
    while (traced_walls_.count() < kMinIterations || seconds_since(start) < budget_s) {
      auto span = spans_.span("iteration");
      obs::EventLoopProfiler profiler;
      const Stopwatch watch;
      Outcome o = workload_.run(seed_, spans_, &profiler);
      traced_cpus_.add(watch.cpu_s());
      traced_walls_.add(watch.wall_s());
      if (o.digest != first_.digest) {
        o.failures.push_back("traced digest " + o.digest + " != untraced " + first_.digest);
      }
      tally(o);
      layer = o;
      profile_.reset();
      profile_.merge_from(profiler);
    }
    {
      auto span = spans_.span("profile_pass");
      obs::EventLoopProfiler profiler;
      if (std::optional<Outcome> o = workload_.profile_pass(seed_, spans_, profiler)) {
        layer = *o;
        profile_.reset();
        profile_.merge_from(profiler);
      }
    }

    const LayerTimes t = attribute(profile_);
    per_layer_ = {
        {"switchd.cpu_us_per_event", us_per(t.switch_cpu_s, t.switch_cpu_events), "us"},
        {"switchd.pkt_ins", static_cast<double>(layer.pkt_ins), "count"},
        {"switchd.fastpath_miss_ratio", ratio(layer.pkt_ins, layer.sent), "ratio"},
        {"switchd.buffer_max_units", layer.buffer_max_units, "units"},
        {"switchd.mmu.rejected", static_cast<double>(layer.mmu_rejected), "count"},
        {"controller.cpu_us_per_event", us_per(t.controller_cpu_s, t.controller_cpu_events), "us"},
        {"controller.flow_mods", static_cast<double>(layer.flow_mods), "count"},
        {"sim.events", static_cast<double>(profile_.total_events()), "count"},
        {"sim.loop_us_per_event", us_per(profile_.total_seconds(), profile_.total_events()), "us"},
        {"net.link_us_per_event", us_per(t.link_s, t.link_events), "us"},
        {"openflow.ctrl_msgs", static_cast<double>(layer.ctrl_msgs), "count"},
        {"core.testbed_build_s", spans_.durations("core.testbed_build").median(), "s"},
        {"obs.int_stamps", static_cast<double>(layer.int_stamps), "count"},
        {"obs.metrics_snapshots", static_cast<double>(layer.metrics_snapshots), "count"},
        {"host.workload_gen_s", spans_.durations("host.workload_gen").median(), "s"},
        {"topo.build_s", spans_.durations("topo.build").median(), "s"},
        {"trace.overhead_pct", (traced_walls_.median() / walls_.median() - 1.0) * 100.0, "%"},
    };
    const std::vector<Metric> probes = probe_metrics(workload_, seed_, seconds_, jobs, spans_);
    per_layer_.insert(per_layer_.end(), probes.begin(), probes.end());
  }

  [[nodiscard]] std::vector<Metric> end_to_end() const {
    const double wall = walls_.median();
    return {
        {"run_wall_s", wall, "s"},
        {"sim_pkts_per_s", static_cast<double>(first_.delivered) / wall, "1/s"},
        {"setup_s", setup_walls_.median(), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"check_pass_ratio", ratio(attempted_ - failed_, attempted_), "ratio"},
        {"sim_setup_ms_p50", first_.setup_ms.percentile(50), "ms"},
        {"sim_setup_ms_p99", first_.setup_ms.percentile(99), "ms"},
        {"sim_ctrl_bytes_per_pkt", first_.ctrl_bytes_per_pkt, "B"},
        {"sim_delivered_ratio", ratio(first_.delivered, first_.sent), "ratio"},
    };
  }
  [[nodiscard]] const std::vector<Metric>& per_layer() const { return per_layer_; }

  // The full report: manifest, samples, every metric, profile rows, spans.
  void write_report(JsonWriter& json, const std::vector<Metric>& end_to_end) const {
    json.key("correct").value(failed_ == 0);
    json.key("attempted").value(attempted_);
    json.key("failed").value(failed_);
    json.key("warm_up_digest").value(warm_up_digest_);
    json.key("digest").value(first_.digest);
    json.key("failures").begin_array();
    for (const std::string& f : failures_) json.value(f);
    json.end_array();
    write_samples(json, "setup_cpu_s_samples", setup_cpus_);
    write_samples(json, "setup_wall_s_samples", setup_walls_);
    write_samples(json, "run_cpu_s_samples", cpus_);
    write_samples(json, "run_wall_s_samples", walls_);
    write_samples(json, "traced_run_cpu_s_samples", traced_cpus_);
    write_samples(json, "traced_run_wall_s_samples", traced_walls_);
    json.key("end_to_end");
    write_metrics(json, end_to_end);
    json.key("per_layer");
    write_metrics(json, per_layer_);
    json.key("profile").begin_array();
    for (const obs::EventLoopProfiler::Row& row : profile_.table()) {
      json.begin_object().key("tag").value(row.tag).key("events").value(row.events);
      json.key("total_s").value(row.total_s).key("max_s").value(row.max_s).end_object();
    }
    json.end_array();
    json.key("spans").begin_array();
    for (const SpanRecorder::Record& r : spans_.records()) {
      json.begin_object().key("name").value(r.name);
      json.key("parent").value(static_cast<double>(r.parent));
      json.key("start_s").value(r.start_s).key("end_s").value(r.end_s).end_object();
    }
    json.end_array();
  }

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] const std::vector<std::string>& failures() const { return failures_; }

 private:
  void tally(const Outcome& o) {
    ++attempted_;
    if (!o.failures.empty()) ++failed_;
    failures_.insert(failures_.end(), o.failures.begin(), o.failures.end());
  }

  Workload& workload_;
  std::uint64_t seed_;
  double seconds_;
  bool trace_;
  References refs_;
  SpanRecorder spans_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
  Samples setup_cpus_;
  Samples setup_walls_;
  std::string warm_up_digest_;
  Samples cpus_;
  Samples walls_;
  Outcome first_;
  Samples traced_cpus_;
  Samples traced_walls_;
  obs::EventLoopProfiler profile_;
  std::vector<Metric> per_layer_;
};

}  // namespace

int main(int argc, char** argv) {
  const sdnbuf::util::CliFlags flags(argc, argv,
                                     {"workload", "seed", "seconds", "trace", "out", "results-dir",
                                      "reference-dir", "scratch-dir", "git-describe"});
  const std::string name = flags.get_string("workload", "");
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const double seconds = static_cast<double>(flags.get_int("seconds", 10));
  const bool trace = flags.get_int("trace", 0) != 0;
  const std::string out_path = flags.get_string("out", "");
  References refs;
  refs.results_dir = flags.get_string("results-dir", refs.results_dir);
  refs.reference_dir = flags.get_string("reference-dir", refs.reference_dir);
  const unsigned jobs = sdnbuf::util::ThreadPool::default_parallelism();
  std::unique_ptr<Workload> workload =
      make_workload(name, seed, jobs, flags.get_string("scratch-dir", ".bench_out"));
  if (!flags.ok() || workload == nullptr || seconds <= 0) {
    std::cerr << (flags.ok() ? "unknown workload '" + name + "'" : flags.error()) << "\n"
              << "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out F]\n";
    return 2;
  }
  std::string why;
  if (!build_is_benchmarkable(why)) {
    std::cerr << "perfbench: refusing to report from this build: " << why << "\n";
    return 2;
  }

  Run run(*workload, seed, seconds, trace, refs);
  run.set_up();
  run.untraced_loop(trace ? seconds / 2 : seconds);
  if (trace) run.traced_loop(seconds / 2, jobs);
  const std::vector<Metric> end_to_end = run.end_to_end();

  if (!out_path.empty()) {
    JsonWriter json;
    json.begin_object();
    json.key("manifest").begin_object();
    json.key("workload").value(name);
    json.key("seed").value(seed);
    json.key("seconds").value(seconds);
    json.key("trace").value(trace);
    json.key("build_type").value(PERFBENCH_BUILD_TYPE);
    json.key("cxx_flags").value(PERFBENCH_CXX_FLAGS);
    json.key("compiler").value(PERFBENCH_COMPILER);
    json.key("git_describe").value(flags.get_string("git-describe", "unknown"));
    json.key("nproc").value(std::uint64_t{std::thread::hardware_concurrency()});
    json.key("sweep_jobs").value(std::uint64_t{jobs});
    json.end_object();
    run.write_report(json, end_to_end);
    json.end_object();
    std::ofstream file(out_path);
    file << json.str() << '\n';
    if (!file) {
      std::cerr << "perfbench: could not write " << out_path << "\n";
      return 2;
    }
  }

  std::printf("manifest: workload=%s seed=%llu seconds=%g trace=%d build=%s compiler=%s git=%s "
              "nproc=%u\n",
              name.c_str(), static_cast<unsigned long long>(seed), seconds, trace ? 1 : 0,
              PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER,
              flags.get_string("git-describe", "unknown").c_str(),
              std::thread::hardware_concurrency());
  const std::vector<Metric>& shown = trace ? run.per_layer() : end_to_end;
  for (const Metric& m : shown) std::printf("%-36s %.6g %s\n", m.name.c_str(), m.value, m.unit);
  for (const std::string& f : run.failures()) std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());

  JsonWriter line;
  line.begin_object();
  line.key("correct").value(run.failed() == 0);
  line.key("attempted").value(run.attempted());
  line.key("failed").value(run.failed());
  line.key("metrics");
  write_metrics(line, shown);
  line.end_object();
  std::printf("%s\n", line.str().c_str());
  return run.failed() == 0 ? 0 : 1;
}
