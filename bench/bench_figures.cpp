// The paper's figures and headline claims, from one sweep per mechanism.
//
// Experiment E1 (§IV) runs no-buffer / buffer-16 / buffer-256 over the
// 5..100 Mbps grid once each; Figs. 2-8 read those three sweeps. Experiment
// E2 (§V.B) runs packet- vs flow-granularity once each; Figs. 9-13 read
// those two. Every figure prints as a table and writes <csv-dir>/<id>.csv;
// then every "on average" percentage of the abstract, §IV and §V is
// recomputed from the same sweeps and printed next to the paper's number.
// EXPERIMENTS.md discusses each figure's shape against the paper.
//
// Reductions use the ratio of means over the whole rate sweep (1 - b̄/ā),
// the arithmetic behind the paper's "on average" numbers (e.g. its 78% flow
// setup delay reduction is 1 - 1.17 ms / 5.28 ms).
#include <iostream>

#include "common.hpp"

namespace {

using sdnbuf::core::RatePoint;
using sdnbuf::core::SweepResult;
using sdnbuf::util::Summary;

// One figure: which experiment's sweeps it plots and the per-rate summary.
// Fig. 8 plots only the mechanisms that have a buffer to observe.
struct Figure {
  const char* id;
  const char* title;
  const char* unit;
  bool e2;
  const Summary& (*metric)(const RatePoint&);
  bool buffered_only = false;
};

using P = const RatePoint&;
using S = const Summary&;

const Figure kFigures[] = {
    {"fig2a", "control path load, switch -> controller", "Mbps", false,
     [](P p) -> S { return p.to_controller_mbps; }},
    {"fig2b", "control path load, controller -> switch", "Mbps", false,
     [](P p) -> S { return p.to_switch_mbps; }},
    {"fig3", "controller CPU usage (100% = one core)", "%", false,
     [](P p) -> S { return p.controller_cpu_pct; }},
    {"fig4", "switch CPU usage (100% = one core)", "%", false,
     [](P p) -> S { return p.switch_cpu_pct; }},
    {"fig5", "flow setup delay", "ms", false, [](P p) -> S { return p.setup_ms; }},
    {"fig6", "controller delay", "ms", false, [](P p) -> S { return p.controller_ms; }},
    {"fig7", "switch delay", "ms", false, [](P p) -> S { return p.switch_ms; }},
    {"fig8", "buffer utilization (max units in use)", "units", false,
     [](P p) -> S { return p.buffer_max_units; }, true},
    {"fig8_avg", "buffer utilization (time-weighted average)", "units", false,
     [](P p) -> S { return p.buffer_avg_units; }, true},
    {"fig9a", "control path load, switch -> controller (E2)", "Mbps", true,
     [](P p) -> S { return p.to_controller_mbps; }},
    {"fig9b", "control path load, controller -> switch (E2)", "Mbps", true,
     [](P p) -> S { return p.to_switch_mbps; }},
    {"fig10", "controller CPU usage (E2)", "%", true,
     [](P p) -> S { return p.controller_cpu_pct; }},
    {"fig11", "switch CPU usage (E2)", "%", true, [](P p) -> S { return p.switch_cpu_pct; }},
    {"fig12a", "flow setup delay (E2)", "ms", true, [](P p) -> S { return p.setup_ms; }},
    {"fig12b", "flow forwarding delay (E2)", "ms", true,
     [](P p) -> S { return p.forwarding_ms; }},
    {"fig13a", "average buffer units used (E2)", "units", true,
     [](P p) -> S { return p.buffer_avg_units; }},
    {"fig13b", "maximum buffer units used (E2)", "units", true,
     [](P p) -> S { return p.buffer_max_units; }},
};

using Metric = double (*)(const RatePoint&);

// (1 - mean_over_rates(b) / mean_over_rates(a)) * 100.
double reduction_pct(const SweepResult& a, const SweepResult& b, Metric metric) {
  Summary sa;
  Summary sb;
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    sa.add(metric(a.points[i]));
    sb.add(metric(b.points[i]));
  }
  if (sa.mean() <= 0) return 0.0;
  return (1.0 - sb.mean() / sa.mean()) * 100.0;
}

double at_rate(const SweepResult& r, double rate, Metric metric) {
  for (const auto& p : r.points) {
    if (p.rate_mbps == rate) return metric(p);
  }
  return 0.0;
}

void print_claims(const sdnbuf::bench::Options& options, const std::vector<SweepResult>& e1,
                  const std::vector<SweepResult>& e2) {
  using sdnbuf::bench::print_claim;
  const Metric up = [](P p) { return p.to_controller_mbps.mean(); };
  const Metric down = [](P p) { return p.to_switch_mbps.mean(); };
  const Metric ctrl_cpu = [](P p) { return p.controller_cpu_pct.mean(); };
  const Metric sw_cpu = [](P p) { return p.switch_cpu_pct.mean(); };
  const Metric setup = [](P p) { return p.setup_ms.mean(); };
  const Metric fwd = [](P p) { return p.forwarding_ms.mean(); };

  std::cout << "== Summary claims: paper vs this reproduction ==\n";
  std::cout << "(reps=" << options.repetitions << " per rate; reductions are means over the "
            << "5-100 Mbps sweep)\n\n";

  const SweepResult& none = e1[0];
  const SweepResult& b16 = e1[1];
  const SweepResult& b256 = e1[2];
  std::cout << "Experiment 1 (no-buffer vs buffer-256, 1000 single-packet flows):\n";
  print_claim("control path load reduction, switch->controller", "78.7%",
              reduction_pct(none, b256, up), "%");
  print_claim("control path load reduction, controller->switch", "96%",
              reduction_pct(none, b256, down), "%");
  print_claim("controller overhead reduction", "37%", reduction_pct(none, b256, ctrl_cpu), "%");
  print_claim("switch overhead increase (buffer-256 vs no-buffer)", "+5.6%",
              -reduction_pct(none, b256, sw_cpu), "%");
  print_claim("flow setup delay reduction (buffer-256)", "78%", reduction_pct(none, b256, setup),
              "%");
  print_claim("controller delay reduction (buffer-256)", "58%",
              reduction_pct(none, b256, [](P p) { return p.controller_ms.mean(); }), "%");
  print_claim("switch delay reduction (buffer-256)", "87%",
              reduction_pct(none, b256, [](P p) { return p.switch_ms.mean(); }), "%");
  print_claim("buffer-256 units needed at 95 Mbps", "<= ~80",
              at_rate(b256, 95.0, [](P p) { return p.buffer_max_units.mean(); }), "units");
  print_claim("buffer-16 exhausted (full-frame fallbacks) at 35 Mbps", "> 0",
              at_rate(b16, 35.0, [](P p) { return p.full_frame_pkt_ins.mean(); }), "pkt_ins");

  const SweepResult& pkt = e2[0];
  const SweepResult& flow = e2[1];
  std::cout << "\nExperiment 2 (packet- vs flow-granularity, 50 flows x 20 packets):\n";
  print_claim("control path load reduction, switch->controller", "64%",
              reduction_pct(pkt, flow, up), "%");
  print_claim("control path load reduction, controller->switch", "80%",
              reduction_pct(pkt, flow, down), "%");
  print_claim("controller overhead reduction", "35.7%", reduction_pct(pkt, flow, ctrl_cpu), "%");
  print_claim("switch overhead change (flow vs packet; paper means 11.67 vs 17.31)", "~-33%",
              -reduction_pct(pkt, flow, sw_cpu), "%");
  print_claim("flow forwarding delay reduction", "18%", reduction_pct(pkt, flow, fwd), "%");
  print_claim("buffer utilization improvement (avg units)", "71.6%",
              reduction_pct(pkt, flow, [](P p) { return p.buffer_avg_units.mean(); }), "%");
  print_claim("flow setup delay reduction at 95 Mbps", "10.8%",
              (1.0 - at_rate(flow, 95.0, setup) / at_rate(pkt, 95.0, setup)) * 100.0, "%");
  print_claim("flow forwarding delay reduction at 95 Mbps", "37.4%",
              (1.0 - at_rate(flow, 95.0, fwd) / at_rate(pkt, 95.0, fwd)) * 100.0, "%");
  print_claim("requests per 20-packet flow (flow-granularity)", "1",
              flow.overall_mean([](P p) { return p.pkt_ins_sent.mean() / 50.0; }),
              "pkt_in/flow");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sdnbuf;
  const auto options = bench::parse_options(argc, argv);

  std::vector<SweepResult> e1;
  std::vector<SweepResult> e1_buffered;  // Fig. 8: only the mechanisms with a buffer
  for (const auto& mechanism : bench::e1_mechanisms()) {
    e1.push_back(bench::run_e1(options, mechanism));
    if (mechanism.mode != sw::BufferMode::NoBuffer) e1_buffered.push_back(e1.back());
  }
  std::vector<SweepResult> e2;
  for (const auto& mechanism : bench::e2_mechanisms()) {
    e2.push_back(bench::run_e2(options, mechanism));
  }

  for (const Figure& f : kFigures) {
    const auto& sweeps = f.e2 ? e2 : f.buffered_only ? e1_buffered : e1;
    bench::print_figure(options, f.id, f.title, f.unit, sweeps, f.metric);
  }
  print_claims(options, e1, e2);
  return 0;
}
