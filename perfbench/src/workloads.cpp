#include "workloads.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <sstream>

#include "common.hpp"
#include "core/experiment.hpp"
#include "core/fabric_experiment.hpp"
#include "core/sweep.hpp"
#include "core/testbed.hpp"
#include "obs/fabric_observatory.hpp"
#include "obs/metrics.hpp"
#include "topo/routing.hpp"
#include "topo/topology.hpp"

namespace perfbench {
namespace {

namespace bench = sdnbuf::bench;
namespace core = sdnbuf::core;
namespace host = sdnbuf::host;
namespace obs = sdnbuf::obs;
namespace sw = sdnbuf::sw;
namespace topo = sdnbuf::topo;
namespace verify = sdnbuf::verify;

// Accumulates "name=value;" text at full precision for a digest.
class Fingerprint {
 public:
  Fingerprint& add(const char* name, double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    text_ += name;
    text_ += '=';
    text_ += buf;
    text_ += ';';
    return *this;
  }
  Fingerprint& add(const char* name, std::uint64_t v) {
    text_ += name;
    text_ += '=';
    text_ += std::to_string(v);
    text_ += ';';
    return *this;
  }
  Fingerprint& add(const char* name, const std::vector<double>& xs) {
    for (const double x : xs) add(name, x);
    return *this;
  }
  [[nodiscard]] std::string digest() const { return fnv1a_hex(text_); }

 private:
  std::string text_;
};

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

// --- e1-16k --------------------------------------------------------------

constexpr std::uint64_t kE1Flows = 16384;

class E1Workload final : public Workload {
 public:
  E1Workload() {
    config_.mode = sw::BufferMode::PacketGranularity;
    config_.buffer_capacity = 256;
    config_.rate_mbps = 50.0;
    config_.frame_size = 1000;
    config_.n_flows = kE1Flows;
    config_.packets_per_flow = 1;
  }

  void setup(SpanRecorder& spans) override {
    core::TestbedConfig tb = config_.testbed;
    tb.switch_config.buffer_mode = config_.mode;
    tb.switch_config.buffer_capacity = config_.buffer_capacity;
    auto span = spans.span("core.testbed_build");
    core::Testbed bed{tb};
    bed.warm_up();
  }

  Outcome run(std::uint64_t seed, SpanRecorder& spans,
              obs::EventLoopProfiler* profiler) override {
    core::ExperimentConfig config = config_;
    config.seed = seed;
    config.profiler = profiler;
    core::ExperimentResult r;
    {
      auto span = spans.span("core.run_experiment");
      r = core::run_experiment(config);
    }
    auto span = spans.span("check");
    Outcome out;
    out.sent = r.packets_sent;
    out.delivered = r.packets_delivered;
    out.setup_ms = r.setup_ms;
    out.ctrl_bytes_per_pkt = ratio(static_cast<double>(r.to_controller_bytes + r.to_switch_bytes),
                                   static_cast<double>(r.packets_delivered));
    out.pkt_ins = r.pkt_ins_sent;
    out.flow_mods = r.flow_mods;
    out.ctrl_msgs = r.to_controller_msgs + r.to_switch_msgs;
    out.mmu_rejected = r.mmu_rejected;
    out.int_stamps = r.int_stamps;
    out.buffer_max_units = r.buffer_max_units;

    Fingerprint fp;
    fp.add("to_controller_mbps", r.to_controller_mbps)
        .add("to_switch_mbps", r.to_switch_mbps)
        .add("controller_cpu_pct", r.controller_cpu_pct)
        .add("switch_cpu_pct", r.switch_cpu_pct)
        .add("bus_utilization_pct", r.bus_utilization_pct)
        .add("setup_ms", r.setup_ms.values())
        .add("controller_ms", r.controller_ms.values())
        .add("switch_ms", r.switch_ms.values())
        .add("forwarding_ms", r.forwarding_ms.values())
        .add("buffer_avg_units", r.buffer_avg_units)
        .add("buffer_max_units", r.buffer_max_units)
        .add("pkt_ins_sent", r.pkt_ins_sent)
        .add("full_frame_pkt_ins", r.full_frame_pkt_ins)
        .add("flow_mods", r.flow_mods)
        .add("pkt_outs", r.pkt_outs)
        .add("to_controller_bytes", r.to_controller_bytes)
        .add("to_switch_bytes", r.to_switch_bytes)
        .add("packets_sent", r.packets_sent)
        .add("packets_delivered", r.packets_delivered)
        .add("duplicates", r.duplicates)
        .add("flows_complete", r.flows_complete)
        .add("duration_s", r.duration_s);
    out.digest = fp.digest();

    if (!r.drained) out.failures.push_back("e1-16k: run did not drain");
    if (r.packets_delivered != kE1Flows) {
      out.failures.push_back("e1-16k: delivered " + std::to_string(r.packets_delivered) + " of " +
                             std::to_string(kE1Flows));
    }
    return out;
  }

  [[nodiscard]] std::optional<std::uint64_t> reference_seed() const override { return 1; }

  void check_reference(const References& refs, Outcome& outcome) const override {
    const std::string path = refs.reference_dir + "/e1-16k.digest";
    const std::optional<std::string> text = read_file(path);
    if (!text) {
      outcome.failures.push_back("e1-16k: missing reference digest " + path);
      return;
    }
    std::istringstream in(*text);
    std::string expected;
    in >> expected;
    if (expected != outcome.digest) {
      outcome.failures.push_back("e1-16k: digest " + outcome.digest + " != reference " + expected);
    }
  }

  [[nodiscard]] std::size_t flow_table_occupancy() const override {
    return config_.testbed.switch_config.flow_table_capacity;
  }

 private:
  core::ExperimentConfig config_;
};

// --- figures -------------------------------------------------------------

// One committed figure CSV: which experiment's sweeps it plots and the
// per-rate summary, as the bench_figN binaries pass them to
// bench::print_figure. Fig. 8 plots only the mechanisms that have a buffer.
struct Figure {
  const char* id;
  bool e2;
  const sdnbuf::util::Summary& (*metric)(const core::RatePoint&);
  bool buffered_only = false;
};

const std::vector<Figure>& figures() {
  using P = const core::RatePoint&;
  using S = const sdnbuf::util::Summary&;
  static const std::vector<Figure> all{
      {"fig3", false, [](P p) -> S { return p.controller_cpu_pct; }},
      {"fig4", false, [](P p) -> S { return p.switch_cpu_pct; }},
      {"fig5", false, [](P p) -> S { return p.setup_ms; }},
      {"fig6", false, [](P p) -> S { return p.controller_ms; }},
      {"fig7", false, [](P p) -> S { return p.switch_ms; }},
      {"fig8", false, [](P p) -> S { return p.buffer_max_units; }, true},
      {"fig8_avg", false, [](P p) -> S { return p.buffer_avg_units; }, true},
      {"fig9a", true, [](P p) -> S { return p.to_controller_mbps; }},
      {"fig9b", true, [](P p) -> S { return p.to_switch_mbps; }},
      {"fig10", true, [](P p) -> S { return p.controller_cpu_pct; }},
      {"fig11", true, [](P p) -> S { return p.switch_cpu_pct; }},
      {"fig12a", true, [](P p) -> S { return p.setup_ms; }},
      {"fig12b", true, [](P p) -> S { return p.forwarding_ms; }},
      {"fig13a", true, [](P p) -> S { return p.buffer_avg_units; }},
      {"fig13b", true, [](P p) -> S { return p.buffer_max_units; }},
  };
  return all;
}

// The per-run shape bench::run_e1 / run_e2 sweep, for the sequential
// profiled pass: the sweep driver has no profiler hook.
core::ExperimentConfig run_shape(bool e2, const bench::MechanismSpec& m, std::uint64_t seed) {
  core::ExperimentConfig config;
  config.mode = m.mode;
  config.buffer_capacity = m.buffer_capacity == 0 ? 256 : m.buffer_capacity;
  config.frame_size = 1000;
  config.seed = seed;
  if (e2) {
    config.n_flows = 50;
    config.packets_per_flow = 20;
    config.order = host::EmissionOrder::CrossSequence;
    config.batch_size = 5;
  } else {
    config.n_flows = 1000;
    config.packets_per_flow = 1;
    config.order = host::EmissionOrder::Sequential;
  }
  return config;
}

class FiguresWorkload final : public Workload {
 public:
  FiguresWorkload(unsigned jobs, std::string csv_dir) : jobs_(jobs), csv_dir_(std::move(csv_dir)) {}

  void setup(SpanRecorder& spans) override {
    for (const bool e2 : {false, true}) {
      for (const bench::MechanismSpec& m : e2 ? bench::e2_mechanisms() : bench::e1_mechanisms()) {
        const core::ExperimentConfig config = run_shape(e2, m, 1);
        core::TestbedConfig tb = config.testbed;
        tb.switch_config.buffer_mode = config.mode;
        tb.switch_config.buffer_capacity = config.buffer_capacity;
        auto span = spans.span("core.testbed_build");
        core::Testbed bed{tb};
        bed.warm_up();
      }
    }
  }

  Outcome run(std::uint64_t seed, SpanRecorder& spans, obs::EventLoopProfiler*) override {
    const bench::Options opts = options(seed, kRepetitions, jobs_);
    std::vector<core::SweepResult> e1;
    std::vector<core::SweepResult> e2;
    for (const bench::MechanismSpec& m : bench::e1_mechanisms()) {
      auto span = spans.span("bench.run_e1:" + m.label);
      e1.push_back(bench::run_e1(opts, m));
    }
    for (const bench::MechanismSpec& m : bench::e2_mechanisms()) {
      auto span = spans.span("bench.run_e2:" + m.label);
      e2.push_back(bench::run_e2(opts, m));
    }

    auto span = spans.span("check");
    Outcome out;
    std::string all_files;
    for (const Figure& f : figures()) {
      const std::vector<bench::MechanismSpec> mechanisms =
          f.e2 ? bench::e2_mechanisms() : bench::e1_mechanisms();
      const std::vector<core::SweepResult>& sweeps = f.e2 ? e2 : e1;
      std::vector<core::SweepResult> plotted;
      for (std::size_t i = 0; i < sweeps.size(); ++i) {
        if (!f.buffered_only || mechanisms[i].mode != sw::BufferMode::NoBuffer) {
          plotted.push_back(sweeps[i]);
        }
      }
      const std::string name = std::string(f.id) + ".csv";
      const std::string path = csv_dir_ + "/" + name;
      std::error_code ec;
      std::filesystem::remove(path, ec);  // a failed write must not pass on a stale file
      bench::print_figure(opts, f.id, f.id, "", plotted, f.metric);
      std::optional<std::string> csv = read_file(path);
      if (!csv) {
        out.failures.push_back("figures: print_figure wrote no " + path);
        continue;
      }
      all_files += *csv;
      out.files[name] = std::move(*csv);
    }
    out.digest = fnv1a_hex(all_files);

    // Per (mechanism, rate) point: the mean setup delay, and control-path
    // Mbps over the offered data Mbps, times the frame size.
    double ctrl_bytes_per_pkt_sum = 0.0;
    for (const std::vector<core::SweepResult>* sweeps : {&e1, &e2}) {
      for (const core::SweepResult& s : *sweeps) {
        if (s.points.size() != core::default_rates().size()) {
          out.failures.push_back("figures: sweep " + s.label + " has " +
                                 std::to_string(s.points.size()) + " rate points");
        }
        for (const core::RatePoint& p : s.points) {
          const std::uint64_t sent = p.setup_ms.count() * kPacketsPerRun;
          out.sent += sent;
          out.delivered += sent - p.undelivered_packets;
          out.setup_ms.add(p.setup_ms.mean());
          ctrl_bytes_per_pkt_sum +=
              (p.to_controller_mbps.mean() + p.to_switch_mbps.mean()) / p.rate_mbps * kFrameBytes;
          out.pkt_ins += static_cast<std::uint64_t>(p.pkt_ins_sent.sum());
          out.buffer_max_units = std::max(out.buffer_max_units, p.buffer_max_units.max());
        }
      }
    }
    out.ctrl_bytes_per_pkt =
        ratio(ctrl_bytes_per_pkt_sum, static_cast<double>(out.setup_ms.count()));
    if (out.sent != out.delivered) {
      out.failures.push_back("figures: " + std::to_string(out.sent - out.delivered) +
                             " packets undelivered");
    }
    return out;
  }

  [[nodiscard]] std::optional<std::uint64_t> reference_seed() const override { return 1; }

  void check_reference(const References& refs, Outcome& outcome) const override {
    for (const auto& [name, bytes] : outcome.files) {
      const std::string path = refs.results_dir + "/" + name;
      const std::optional<std::string> committed = read_file(path);
      if (!committed) {
        outcome.failures.push_back("figures: missing committed " + path);
      } else if (*committed != bytes) {
        outcome.failures.push_back("figures: " + name + " differs from committed " + path);
      }
    }
  }

  std::optional<Outcome> profile_pass(std::uint64_t seed, SpanRecorder& spans,
                                      obs::EventLoopProfiler& profiler) override {
    // One repetition per (mechanism, rate), sequentially: the profiler is a
    // single-threaded sink, so the parallel sweep cannot carry it.
    Outcome out;
    for (const bool e2 : {false, true}) {
      for (const bench::MechanismSpec& m : e2 ? bench::e2_mechanisms() : bench::e1_mechanisms()) {
        for (const double rate : core::default_rates()) {
          core::ExperimentConfig config = run_shape(e2, m, seed);
          config.rate_mbps = rate;
          obs::EventLoopProfiler cell_profiler;
          config.profiler = &cell_profiler;
          core::ExperimentResult r;
          {
            auto span = spans.span("core.run_experiment");
            r = core::run_experiment(config);
          }
          profiler.merge_from(cell_profiler);
          out.sent += r.packets_sent;
          out.delivered += r.packets_delivered;
          out.pkt_ins += r.pkt_ins_sent;
          out.flow_mods += r.flow_mods;
          out.ctrl_msgs += r.to_controller_msgs + r.to_switch_msgs;
          out.buffer_max_units = std::max(out.buffer_max_units, r.buffer_max_units);
        }
      }
    }
    return out;
  }

  std::optional<double> sweep_speedup(std::uint64_t seed, unsigned jobs) override {
    const bench::MechanismSpec m = bench::e1_mechanisms()[2];  // buffer-256
    const auto t1 = Clock::now();
    (void)bench::run_e1(options(seed, 2, 1), m);
    const double sequential_s = seconds_since(t1);
    const auto tn = Clock::now();
    (void)bench::run_e1(options(seed, 2, jobs), m);
    return sequential_s / seconds_since(tn);
  }

 private:
  static constexpr int kRepetitions = 20;  // the committed figures' count
  // Every E1 and E2 run sends 1000 frames of 1000 bytes.
  static constexpr std::uint64_t kPacketsPerRun = 1000;
  static constexpr double kFrameBytes = 1000.0;

  [[nodiscard]] bench::Options options(std::uint64_t seed, int repetitions,
                                       unsigned jobs) const {
    bench::Options o;
    o.repetitions = repetitions;
    o.jobs = static_cast<int>(jobs);
    o.seed = seed;
    o.quiet = true;
    o.csv_dir = csv_dir_;
    return o;
  }

  unsigned jobs_;
  std::string csv_dir_;
};

// --- fabric workloads ----------------------------------------------------

// How core::run_fabric_experiment derives its testbed, traffic matrix and
// traffic seed from the experiment config. Set-up uses them to build one
// testbed and to pregenerate the traffic the output check compares against;
// should the driver's derivation change, that check fails.
core::FabricConfig fabric_config(const core::FabricExperimentConfig& config) {
  core::FabricConfig fc = config.fabric;
  fc.topology = config.topology;
  fc.routing = config.routing;
  fc.seed = config.seed;
  fc.switch_config.buffer_mode = config.mode;
  fc.switch_config.buffer_capacity = config.buffer_capacity;
  fc.observatory = config.observatory;
  return fc;
}

host::TrafficMatrixConfig traffic_matrix(const core::FabricExperimentConfig& config) {
  host::TrafficMatrixConfig tm;
  tm.pattern = config.pattern;
  for (unsigned h = 0; h < config.topology.n_hosts(); ++h) {
    tm.host_macs.push_back(topo::Topology::host_mac(h));
    tm.host_ips.push_back(topo::Topology::host_ip(h));
  }
  tm.incast_target = config.incast_target;
  tm.incast_fanin = config.incast_fanin;
  tm.duration_s = config.duration_s;
  tm.flow_arrival_per_s = config.flow_arrival_per_s;
  tm.pareto_alpha = config.pareto_alpha;
  tm.min_packets = config.min_packets;
  tm.max_packets = config.max_packets;
  tm.in_flow_rate_mbps = config.in_flow_rate_mbps;
  tm.frame_size = config.frame_size;
  return tm;
}

std::uint64_t traffic_seed(const core::FabricExperimentConfig& config) {
  return config.seed * 7919u + 3;
}

class FabricWorkload : public Workload {
 public:
  explicit FabricWorkload(std::uint64_t seed) : seed_(seed) {}

  void setup(SpanRecorder& spans) override {
    {
      auto span = spans.span("topo.build");
      config_ = base_config(seed_);
      const topo::Router router(config_.topology, seed_);
    }
    {
      auto span = spans.span("host.workload_gen");
      const host::PregeneratedTraffic pre =
          host::pregenerate_traffic_matrix(traffic_matrix(config_), traffic_seed(config_));
      expected_flows_ = pre.flows_started;
      expected_.clear();
      expected_.reserve(pre.emissions.size());
      for (const host::PregeneratedEmission& e : pre.emissions) {
        expected_.emplace_back(e.packet.flow_id, e.packet.seq_in_flow);
      }
      std::sort(expected_.begin(), expected_.end());
    }
    auto span = spans.span("core.testbed_build");
    const core::FabricTestbed bed(fabric_config(config_));
  }

  // The fabric driver has no profiler hook, so traced iterations carry
  // spans only.
  Outcome run(std::uint64_t seed, SpanRecorder& spans, obs::EventLoopProfiler*) override {
    core::FabricExperimentConfig config = config_;
    config.seed = seed;
    Telemetry telemetry;
    attach_telemetry(config, telemetry);
    core::FabricExperimentResult r;
    {
      auto span = spans.span("core.run_fabric_experiment");
      r = core::run_fabric_experiment(config);
    }
    auto span = spans.span("check");
    Outcome out;
    out.sent = r.packets_sent;
    out.delivered = r.packets_delivered;
    out.setup_ms = r.first_packet_ms;
    out.ctrl_bytes_per_pkt = ratio(static_cast<double>(r.control_bytes),
                                   static_cast<double>(r.packets_delivered));
    out.pkt_ins = r.pkt_ins;
    out.flow_mods = r.flow_mods;
    out.ctrl_msgs = r.control_msgs;
    out.mmu_rejected = r.mmu_rejected;
    out.int_stamps = r.int_stamps;
    out.metrics_snapshots = telemetry.metrics ? telemetry.metrics->snapshot_count() : 0;
    out.buffer_max_units = r.buffer_max_units;

    Fingerprint fp;
    fp.add("flows", r.flows)
        .add("packets_sent", r.packets_sent)
        .add("packets_delivered", r.packets_delivered)
        .add("duplicates", r.duplicates)
        .add("pkt_ins", r.pkt_ins)
        .add("flow_mods", r.flow_mods)
        .add("control_msgs", r.control_msgs)
        .add("control_bytes", r.control_bytes)
        .add("first_packet_ms", r.first_packet_ms.values())
        .add("buffer_max_units", r.buffer_max_units)
        .add("mmu_rejected", r.mmu_rejected)
        .add("int_stamps", r.int_stamps);
    for (const verify::PayloadId& id : r.delivered) {
      fp.add("flow", id.first).add("seq", std::uint64_t{id.second});
    }
    out.digest = fp.digest();

    check(r, telemetry, out);
    return out;
  }

 protected:
  // The observability plane one iteration attaches (incast-telemetry only).
  struct Telemetry {
    std::unique_ptr<obs::FabricObservatory> observatory;
    std::unique_ptr<obs::MetricsRegistry> metrics;
  };

  virtual core::FabricExperimentConfig base_config(std::uint64_t seed) const = 0;
  virtual void attach_telemetry(core::FabricExperimentConfig&, Telemetry&) const {}
  // Checks the run against the traffic matrix pregenerated in setup.
  virtual void check(const core::FabricExperimentResult& r, const Telemetry& telemetry,
                     Outcome& out) const = 0;

  [[nodiscard]] const std::vector<verify::PayloadId>& expected() const { return expected_; }
  [[nodiscard]] std::uint64_t expected_flows() const { return expected_flows_; }
  [[nodiscard]] const core::FabricExperimentConfig& config() const { return config_; }

 private:
  std::uint64_t seed_;
  core::FabricExperimentConfig config_;
  std::vector<verify::PayloadId> expected_;
  std::uint64_t expected_flows_ = 0;
};

class FatTreeWorkload final : public FabricWorkload {
 public:
  explicit FatTreeWorkload(std::uint64_t seed) : FabricWorkload(seed) {}

 protected:
  core::FabricExperimentConfig base_config(std::uint64_t seed) const override {
    core::FabricExperimentConfig config;
    config.topology = topo::make_fat_tree(8);
    config.routing = core::FabricRouting::TopologyPerHop;
    config.mode = sw::BufferMode::PacketGranularity;
    config.buffer_capacity = 256;
    config.pattern = host::TrafficPattern::AllToAll;
    config.duration_s = 4.0;
    config.flow_arrival_per_s = 500.0;
    config.seed = seed;
    return config;
  }

  void check(const core::FabricExperimentResult& r, const Telemetry&, Outcome& out) const override {
    if (!r.drained) out.failures.push_back("fabric-k8: run did not drain");
    if (r.flows != expected_flows() || r.delivered != expected()) {
      out.failures.push_back("fabric-k8: delivered multiset (" +
                             std::to_string(r.delivered.size()) + ") differs from the " +
                             std::to_string(expected().size()) + " packets sent");
    }
  }
};

class IncastWorkload final : public FabricWorkload {
 public:
  explicit IncastWorkload(std::uint64_t seed) : FabricWorkload(seed) {}

  [[nodiscard]] bool runs_mmu() const override { return true; }

  std::optional<double> telemetry_overhead_pct(std::uint64_t seed, double budget_s) override {
    sdnbuf::util::Samples off_s;
    sdnbuf::util::Samples on_s;
    const auto start = Clock::now();
    while (off_s.count() < 2 || seconds_since(start) < budget_s) {
      core::FabricExperimentConfig cfg = config();
      cfg.seed = seed;
      const Stopwatch off;
      (void)core::run_fabric_experiment(cfg);
      off_s.add(off.cpu_s());
      Telemetry telemetry;
      attach_telemetry(cfg, telemetry);
      const Stopwatch on;
      (void)core::run_fabric_experiment(cfg);
      on_s.add(on.cpu_s());
    }
    return (on_s.median() / off_s.median() - 1.0) * 100.0;
  }

 protected:
  // bench_mmu's fan-in-15 dynamic-threshold cell, run for 2 s so the
  // outcome no longer hinges on a few bursts of one seed.
  core::FabricExperimentConfig base_config(std::uint64_t seed) const override {
    core::FabricExperimentConfig config;
    config.topology = topo::make_leaf_spine(2, 4, 4);
    config.routing = core::FabricRouting::TopologyPerHop;
    config.mode = sw::BufferMode::FlowGranularity;
    config.buffer_capacity = 64;
    config.pattern = host::TrafficPattern::Incast;
    config.incast_target = 0;
    config.incast_fanin = 15;
    config.duration_s = 2.0;
    config.flow_arrival_per_s = 2500.0;
    config.min_packets = 4;
    config.max_packets = 32;
    config.frame_size = 1000;
    config.in_flow_rate_mbps = 400.0;
    config.seed = seed;
    config.fabric.switch_config.egress.queue_limit_bytes = 16 * 1024;
    sw::mmu::MmuConfig& m = config.fabric.switch_config.mmu;
    m.enabled = true;
    m.policy = sw::mmu::PolicyKind::DynamicThreshold;
    m.pool_cells = 1536;
    m.cell_bytes = 256;
    m.headroom_cells = 32;
    m.reserved_cells = 2;
    m.alpha = 1.0;
    m.buffer_alpha = 0.5;
    m.delay_target_ms = 4.0;
    return config;
  }

  void attach_telemetry(core::FabricExperimentConfig& config, Telemetry& t) const override {
    t.observatory = std::make_unique<obs::FabricObservatory>();
    t.metrics = std::make_unique<obs::MetricsRegistry>();
    config.observatory = t.observatory.get();
    config.metrics = t.metrics.get();
    config.fabric.switch_config.telemetry_int_depth = 4;
    config.fabric.switch_config.telemetry_sample_period = 16;
    config.fabric.controller_config.flow_monitor_enabled = true;
  }

  void check(const core::FabricExperimentResult& r, const Telemetry& t,
             Outcome& out) const override {
    const obs::FabricObservatory& o = *t.observatory;
    const std::uint64_t injected = o.injected();
    const std::uint64_t delivered = o.delivered();
    const std::uint64_t fated = o.fated();
    const std::uint64_t stranded = o.stranded();
    if (injected != delivered + fated + stranded || injected != r.packets_sent ||
        delivered != r.packets_delivered || stranded != 0) {
      out.failures.push_back("incast-telemetry: ledger injected " + std::to_string(injected) +
                             " != delivered " + std::to_string(delivered) + " + fated " +
                             std::to_string(fated) + " + stranded " + std::to_string(stranded) +
                             " (run sent " + std::to_string(r.packets_sent) + ", delivered " +
                             std::to_string(r.packets_delivered) + ")");
    }
    if (r.mmu_rejected == 0 || r.int_stamps == 0 || out.metrics_snapshots == 0) {
      out.failures.push_back("incast-telemetry: MMU or telemetry plane did no work");
    }
    if (r.flows != expected_flows() || r.packets_sent != expected().size() ||
        !std::includes(expected().begin(), expected().end(), r.delivered.begin(),
                       r.delivered.end())) {
      out.failures.push_back("incast-telemetry: delivered payloads are not a subset of those sent");
    }
  }
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed,
                                        unsigned jobs, const std::string& scratch_dir) {
  if (name == "e1-16k") return std::make_unique<E1Workload>();
  if (name == "figures") return std::make_unique<FiguresWorkload>(jobs, scratch_dir + "/figures-csv");
  if (name == "fabric-k8") return std::make_unique<FatTreeWorkload>(seed);
  if (name == "incast-telemetry") return std::make_unique<IncastWorkload>(seed);
  return nullptr;
}

}  // namespace perfbench
