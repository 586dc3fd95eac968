#pragma once

/// Shared test helpers: tiny system builders and layout/analysis shortcuts.

#include <stdexcept>

#include "flexopt/analysis/system_analysis.hpp"
#include "flexopt/flexray/bus_layout.hpp"
#include "flexopt/flexray/system_config.hpp"
#include "flexopt/gen/figures.hpp"

namespace flexopt::testing {

/// The one-cluster base a single-bus search hands the evaluator: every move
/// of cluster 0 replaces it whole, so its contents are never read.
inline SystemConfig single_bus() { return SystemConfig::single(BusConfig{}); }

/// Builds a layout or throws (tests want loud failures with the reason).
inline BusLayout make_layout(const Application& app, const BusParams& params,
                             const BusConfig& config) {
  auto layout = BusLayout::build(app, params, config);
  if (!layout.ok()) throw std::runtime_error("layout: " + layout.error().message);
  return std::move(layout).value();
}

/// Runs the full analysis or throws.
inline AnalysisResult analyze(const BusLayout& layout, AnalysisOptions options = {}) {
  auto result = analyze_system(layout, options);
  if (!result.ok()) throw std::runtime_error("analysis: " + result.error().message);
  return std::move(result).value();
}

/// A minimal two-node application: one SCS producer on N0 sending one ST
/// message to an SCS consumer on N1, plus one FPS task with a DYN message
/// back.  Exercises every activity kind.
struct TinySystem {
  Application app;
  BusParams params;
  BusConfig config;
  TaskId producer{};
  TaskId consumer{};
  TaskId fps_task{};
  TaskId fps_sink{};
  MessageId st_msg{};
  MessageId dyn_msg{};

  TinySystem() {
    params = didactic_params();
    const NodeId n0 = app.add_node("N0");
    const NodeId n1 = app.add_node("N1");
    const GraphId tt = app.add_graph("tt", timeunits::us(100), timeunits::us(100));
    const GraphId et = app.add_graph("et", timeunits::us(100), timeunits::us(100));
    producer = app.add_task(tt, "producer", n0, timeunits::us(2), TaskPolicy::Scs);
    consumer = app.add_task(tt, "consumer", n1, timeunits::us(2), TaskPolicy::Scs);
    st_msg = app.add_message(tt, "st", producer, consumer, 4, MessageClass::Static);
    fps_task = app.add_task(et, "fps", n1, timeunits::us(3), TaskPolicy::Fps, 1);
    fps_sink = app.add_task(et, "fps_sink", n0, timeunits::us(1), TaskPolicy::Fps, 2);
    dyn_msg = app.add_message(et, "dyn", fps_task, fps_sink, 2, MessageClass::Dynamic, 0);
    auto fin = app.finalize();
    if (!fin.ok()) throw std::runtime_error(fin.error().message);

    config.static_slot_count = 2;
    config.static_slot_len = timeunits::us(5);
    config.static_slot_owner = {n0, n1};
    config.minislot_count = 8;
    config.frame_id.assign(app.message_count(), 0);
    config.frame_id[index_of(dyn_msg)] = 1;
  }
};

/// A minimal two-cluster system: cluster 0 hosts N0/N1, cluster 1 hosts N2,
/// gateway GW bridges them.  One event-triggered chain src@N0 -> m_local ->
/// mid@N1 -> m_cross -> sink@N2, so m_cross routes through GW; plus one
/// local FPS task on N2 so cluster 1 has CPU interference.
struct TwoClusterSystem {
  Application app;
  BusParams params;
  NodeId n0{}, n1{}, n2{}, gw{};
  TaskId src{}, mid{}, sink{}, local1{};
  MessageId local_msg{}, cross_msg{};

  TwoClusterSystem() {
    params = didactic_params();
    n0 = app.add_node("N0");
    n1 = app.add_node("N1");
    n2 = app.add_node("N2");
    gw = app.add_node("GW");
    app.set_node_cluster(n2, static_cast<ClusterId>(1));
    app.add_gateway(gw, {static_cast<ClusterId>(1)});  // home 0, bridges 1
    const GraphId g = app.add_graph("G", timeunits::ms(20), timeunits::ms(20));
    src = app.add_task(g, "src", n0, timeunits::us(500), TaskPolicy::Fps, 1);
    mid = app.add_task(g, "mid", n1, timeunits::us(400), TaskPolicy::Fps, 2);
    sink = app.add_task(g, "sink", n2, timeunits::us(300), TaskPolicy::Fps, 3);
    local_msg = app.add_message(g, "m_local", src, mid, 8, MessageClass::Dynamic, 1);
    cross_msg = app.add_message(g, "m_cross", mid, sink, 8, MessageClass::Dynamic, 2);
    const GraphId h = app.add_graph("H", timeunits::ms(40), timeunits::ms(40));
    local1 = app.add_task(h, "local1", n2, timeunits::us(200), TaskPolicy::Fps, 5);
    auto fin = app.finalize();
    if (!fin.ok()) throw std::runtime_error(fin.error().message);
  }
};

}  // namespace flexopt::testing
