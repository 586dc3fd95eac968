#include "flexopt/io/system_format.hpp"

#include <cctype>
#include <istream>
#include <limits>
#include <map>
#include <sstream>
#include <vector>

namespace flexopt {
namespace {

/// key=value token split; returns false if there is no '='.
bool split_kv(const std::string& token, std::string* key, std::string* value) {
  const auto eq = token.find('=');
  if (eq == std::string::npos) return false;
  *key = token.substr(0, eq);
  *value = token.substr(eq + 1);
  return true;
}

Expected<int> parse_int(const std::string& text) {
  try {
    std::size_t used = 0;
    const int v = std::stoi(text, &used);
    if (used != text.size()) return make_error("trailing characters in integer '" + text + "'");
    return v;
  } catch (const std::exception&) {
    return make_error("invalid integer '" + text + "'");
  }
}

}  // namespace

Expected<Time> parse_duration(const std::string& text) {
  if (text.empty()) return make_error("empty duration");
  std::size_t pos = 0;
  while (pos < text.size() && (std::isdigit(static_cast<unsigned char>(text[pos])) != 0)) {
    ++pos;
  }
  if (pos == 0) return make_error("invalid duration '" + text + "'");
  std::int64_t value = 0;
  try {
    value = std::stoll(text.substr(0, pos));
  } catch (const std::exception&) {
    return make_error("invalid duration '" + text + "'");
  }
  const std::string unit = text.substr(pos);
  std::int64_t scale = 0;
  if (unit.empty() || unit == "ns") {
    scale = timeunits::ns(1);
  } else if (unit == "us") {
    scale = timeunits::us(1);
  } else if (unit == "ms") {
    scale = timeunits::ms(1);
  } else if (unit == "s") {
    scale = timeunits::sec(1);
  } else {
    return make_error("unknown duration unit '" + unit + "'");
  }
  // The digits are non-negative; the scaled value must not wrap.
  if (value > std::numeric_limits<Time>::max() / scale) {
    return make_error("duration out of range '" + text + "'");
  }
  return value * scale;
}

Expected<ParsedSystem> parse_system(std::istream& in) {
  ParsedSystem out;
  std::map<std::string, NodeId> nodes;
  std::map<std::string, GraphId> graphs;
  std::map<std::string, bool> graph_tt;
  std::map<std::string, TaskId> tasks;
  std::map<std::string, GraphId> task_graph;

  // `backend` lines are applied after every node is known: the cluster
  // count is bounded by the node and bridge declarations, and a backend
  // index beyond that bound must not size any container.
  struct BackendLine {
    int line_no;
    int cluster;
    ClusterBackendKind kind;
  };
  std::vector<BackendLine> backends;
  std::size_t cluster_refs = 0;  ///< node homes + gateway bridges

  std::string line;
  int line_no = 0;
  auto error_at = [&](const std::string& message) {
    return make_error("line " + std::to_string(line_no) + ": " + message);
  };

  while (std::getline(in, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream ls(line);
    std::string keyword;
    if (!(ls >> keyword)) continue;  // blank line

    std::vector<std::string> args;
    for (std::string tok; ls >> tok;) args.push_back(tok);

    if (keyword == "node") {
      if (args.empty() || args.size() > 2) {
        return error_at("node expects: <name> [cluster=<int>]");
      }
      if (nodes.contains(args[0])) return error_at("duplicate node '" + args[0] + "'");
      const NodeId id = out.app.add_node(args[0]);
      nodes[args[0]] = id;
      ++cluster_refs;
      if (args.size() == 2) {
        std::string key;
        std::string value;
        if (!split_kv(args[1], &key, &value) || key != "cluster") {
          return error_at("node expects: <name> [cluster=<int>]");
        }
        auto cluster = parse_int(value);
        if (!cluster.ok()) return error_at(cluster.error().message);
        if (cluster.value() < 0) return error_at("cluster index must be >= 0");
        out.app.set_node_cluster(
            id, static_cast<ClusterId>(static_cast<std::uint32_t>(cluster.value())));
      }
    } else if (keyword == "gateway") {
      // gateway <name> cluster=<int> bridges=<int>[,<int>...]
      if (args.size() != 3) {
        return error_at("gateway expects: <name> cluster=<int> bridges=<int>[,<int>...]");
      }
      if (nodes.contains(args[0])) return error_at("duplicate node '" + args[0] + "'");
      const NodeId id = out.app.add_node(args[0]);
      nodes[args[0]] = id;
      int home = -1;
      std::vector<ClusterId> bridges;
      for (std::size_t i = 1; i < args.size(); ++i) {
        std::string key;
        std::string value;
        if (!split_kv(args[i], &key, &value)) return error_at("expected key=value: " + args[i]);
        if (key == "cluster") {
          auto parsed = parse_int(value);
          if (!parsed.ok()) return error_at(parsed.error().message);
          if (parsed.value() < 0) return error_at("cluster index must be >= 0");
          home = parsed.value();
        } else if (key == "bridges") {
          std::istringstream list(value);
          for (std::string item; std::getline(list, item, ',');) {
            auto bridge = parse_int(item);
            if (!bridge.ok()) return error_at(bridge.error().message);
            if (bridge.value() < 0) return error_at("bridged cluster must be >= 0");
            bridges.push_back(static_cast<ClusterId>(static_cast<std::uint32_t>(bridge.value())));
          }
        } else {
          return error_at("unknown gateway attribute '" + key + "'");
        }
      }
      if (home < 0) return error_at("gateway needs cluster=<int>");
      if (bridges.empty()) return error_at("gateway needs bridges=<int>[,<int>...]");
      cluster_refs += 1 + bridges.size();
      out.app.set_node_cluster(id, static_cast<ClusterId>(static_cast<std::uint32_t>(home)));
      out.app.add_gateway(id, std::move(bridges));
    } else if (keyword == "backend") {
      if (args.size() != 2) return error_at("backend expects: <cluster-index> flexray|tsn");
      auto cluster = parse_int(args[0]);
      if (!cluster.ok()) return error_at(cluster.error().message);
      if (cluster.value() < 0) return error_at("cluster index must be >= 0");
      auto kind = parse_backend_kind(args[1]);
      if (!kind.ok()) return error_at(kind.error().message);
      backends.push_back({line_no, cluster.value(), kind.value()});
    } else if (keyword == "graph") {
      if (args.size() < 2) return error_at("graph expects: <name> tt|et period=.. deadline=..");
      const std::string& name = args[0];
      if (graphs.contains(name)) return error_at("duplicate graph '" + name + "'");
      const std::string& trigger = args[1];
      if (trigger != "tt" && trigger != "et") return error_at("graph trigger must be tt or et");
      Time period = 0;
      Time deadline = kTimeNone;
      for (std::size_t i = 2; i < args.size(); ++i) {
        std::string key;
        std::string value;
        if (!split_kv(args[i], &key, &value)) return error_at("expected key=value: " + args[i]);
        auto dur = parse_duration(value);
        if (!dur.ok()) return error_at(dur.error().message);
        if (key == "period") {
          period = dur.value();
        } else if (key == "deadline") {
          deadline = dur.value();
        } else {
          return error_at("unknown graph attribute '" + key + "'");
        }
      }
      if (period <= 0) return error_at("graph needs period=<dur>");
      if (deadline == kTimeNone) deadline = period;
      graphs[name] = out.app.add_graph(name, period, deadline);
      graph_tt[name] = trigger == "tt";
    } else if (keyword == "task") {
      if (args.empty()) return error_at("task expects a name");
      const std::string& name = args[0];
      if (tasks.contains(name)) return error_at("duplicate task '" + name + "'");
      std::string graph_name;
      std::string node_name;
      Time wcet = 0;
      Time offset = 0;
      int priority = 0;
      for (std::size_t i = 1; i < args.size(); ++i) {
        std::string key;
        std::string value;
        if (!split_kv(args[i], &key, &value)) return error_at("expected key=value: " + args[i]);
        if (key == "graph") {
          graph_name = value;
        } else if (key == "node") {
          node_name = value;
        } else if (key == "wcet" || key == "offset") {
          auto dur = parse_duration(value);
          if (!dur.ok()) return error_at(dur.error().message);
          (key == "wcet" ? wcet : offset) = dur.value();
        } else if (key == "prio") {
          auto v = parse_int(value);
          if (!v.ok()) return error_at(v.error().message);
          priority = v.value();
        } else {
          return error_at("unknown task attribute '" + key + "'");
        }
      }
      if (!graphs.contains(graph_name)) return error_at("task references unknown graph");
      if (!nodes.contains(node_name)) return error_at("task references unknown node");
      const TaskId id = out.app.add_task(
          graphs[graph_name], name, nodes[node_name], wcet,
          graph_tt[graph_name] ? TaskPolicy::Scs : TaskPolicy::Fps, priority);
      if (offset > 0) out.app.set_task_release_offset(id, offset);
      tasks[name] = id;
      task_graph[name] = graphs[graph_name];
    } else if (keyword == "message") {
      if (args.empty()) return error_at("message expects a name");
      const std::string& name = args[0];
      std::string from;
      std::string to;
      int bytes = 0;
      int priority = 0;
      for (std::size_t i = 1; i < args.size(); ++i) {
        std::string key;
        std::string value;
        if (!split_kv(args[i], &key, &value)) return error_at("expected key=value: " + args[i]);
        if (key == "from") {
          from = value;
        } else if (key == "to") {
          to = value;
        } else if (key == "bytes" || key == "prio") {
          auto v = parse_int(value);
          if (!v.ok()) return error_at(v.error().message);
          (key == "bytes" ? bytes : priority) = v.value();
        } else {
          return error_at("unknown message attribute '" + key + "'");
        }
      }
      if (!tasks.contains(from) || !tasks.contains(to)) {
        return error_at("message references unknown task");
      }
      std::string sender_graph;
      for (const auto& [task_name, g] : task_graph) {
        if (task_name == from) {
          for (const auto& [graph_name, gid] : graphs) {
            if (gid == g) sender_graph = graph_name;
          }
        }
      }
      out.app.add_message(task_graph[from], name, tasks[from], tasks[to], bytes,
                          graph_tt[sender_graph] ? MessageClass::Static
                                                 : MessageClass::Dynamic,
                          priority);
    } else if (keyword == "dependency") {
      if (args.size() != 2) return error_at("dependency expects <from> <to>");
      if (!tasks.contains(args[0]) || !tasks.contains(args[1])) {
        return error_at("dependency references unknown task");
      }
      out.app.add_dependency(tasks[args[0]], tasks[args[1]]);
    } else if (keyword == "param") {
      if (args.size() != 1) return error_at("param expects key=value");
      std::string key;
      std::string value;
      if (!split_kv(args[0], &key, &value)) return error_at("expected key=value");
      if (key == "overhead_bits" || key == "bits_per_byte") {
        auto v = parse_int(value);
        if (!v.ok()) return error_at(v.error().message);
        (key == "overhead_bits" ? out.params.frame.overhead_bits
                                : out.params.frame.bits_per_payload_byte) = v.value();
      } else {
        auto dur = parse_duration(value);
        if (!dur.ok()) return error_at(dur.error().message);
        if (key == "gd_bit") {
          out.params.gd_bit = dur.value();
        } else if (key == "gd_macrotick") {
          out.params.gd_macrotick = dur.value();
        } else if (key == "gd_minislot") {
          out.params.gd_minislot = dur.value();
        } else {
          return error_at("unknown param '" + key + "'");
        }
      }
    } else {
      return error_at("unknown keyword '" + keyword + "'");
    }
  }

  for (const BackendLine& backend : backends) {
    if (static_cast<std::size_t>(backend.cluster) >= cluster_refs) {
      line_no = backend.line_no;
      return error_at("backend declared for cluster " + std::to_string(backend.cluster) +
                      " but the system declares at most " + std::to_string(cluster_refs) +
                      " cluster(s)");
    }
    out.app.set_cluster_backend(
        static_cast<ClusterId>(static_cast<std::uint32_t>(backend.cluster)), backend.kind);
  }
  auto fin = out.app.finalize();
  if (!fin.ok()) return make_error("model: " + fin.error().message);
  return out;
}

Expected<ParsedSystem> parse_system_text(const std::string& text) {
  std::istringstream in(text);
  return parse_system(in);
}

std::string write_system(const Application& app, const BusParams& params) {
  std::ostringstream os;
  os << "# flexopt system description\n";
  os << "param gd_bit=" << params.gd_bit << "ns\n";
  os << "param gd_macrotick=" << params.gd_macrotick << "ns\n";
  os << "param gd_minislot=" << params.gd_minislot << "ns\n";
  os << "param overhead_bits=" << params.frame.overhead_bits << "\n";
  os << "param bits_per_byte=" << params.frame.bits_per_payload_byte << "\n";
  for (const auto& n : app.nodes()) {
    if (n.is_gateway()) {
      os << "gateway " << n.name << " cluster=" << index_of(n.cluster) << " bridges=";
      for (std::size_t i = 0; i < n.bridges.size(); ++i) {
        os << (i > 0 ? "," : "") << index_of(n.bridges[i]);
      }
      os << "\n";
    } else {
      os << "node " << n.name;
      if (index_of(n.cluster) != 0) os << " cluster=" << index_of(n.cluster);
      os << "\n";
    }
  }
  // Backend lines appear only for non-FlexRay clusters, so pre-backend
  // system files round-trip byte-identically.
  for (std::size_t c = 0; c < app.cluster_count(); ++c) {
    const auto id = static_cast<ClusterId>(static_cast<std::uint32_t>(c));
    if (app.cluster_backend(id) != ClusterBackendKind::FlexRay) {
      os << "backend " << c << " " << to_string(app.cluster_backend(id)) << "\n";
    }
  }
  std::vector<bool> graph_is_tt(app.graph_count(), true);
  for (const auto& t : app.tasks()) {
    if (t.policy == TaskPolicy::Fps) graph_is_tt[index_of(t.graph)] = false;
  }
  for (std::uint32_t g = 0; g < app.graph_count(); ++g) {
    os << "graph " << app.graphs()[g].name << " " << (graph_is_tt[g] ? "tt" : "et")
       << " period=" << app.graphs()[g].period << "ns deadline=" << app.graphs()[g].deadline
       << "ns\n";
  }
  for (const auto& t : app.tasks()) {
    os << "task " << t.name << " graph=" << app.graph(t.graph).name
       << " node=" << app.node(t.node).name << " wcet=" << t.wcet << "ns prio=" << t.priority;
    if (t.release_offset > 0) os << " offset=" << t.release_offset << "ns";
    os << "\n";
  }
  for (const auto& m : app.messages()) {
    os << "message " << m.name << " from=" << app.task(m.sender).name
       << " to=" << app.task(m.receiver).name << " bytes=" << m.size_bytes
       << " prio=" << m.priority << "\n";
  }
  // Task->task dependencies are not retrievable one-to-one from the public
  // API (they were folded into adjacency), so re-emit the adjacency edges
  // between tasks directly.
  for (std::uint32_t t = 0; t < app.task_count(); ++t) {
    for (const ActivityRef s : app.successors(ActivityRef::task(static_cast<TaskId>(t)))) {
      if (s.is_task()) {
        os << "dependency " << app.tasks()[t].name << " " << app.task(s.as_task()).name
           << "\n";
      }
    }
  }
  return os.str();
}

}  // namespace flexopt
