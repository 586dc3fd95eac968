#include "flexopt/model/application.hpp"

#include <algorithm>
#include <queue>
#include <stdexcept>

#include "flexopt/math/hyperperiod.hpp"

namespace flexopt {

bool ProcessingNode::in_cluster(ClusterId c) const {
  if (cluster == c) return true;
  return std::find(bridges.begin(), bridges.end(), c) != bridges.end();
}

NodeId Application::add_node(std::string name) {
  ProcessingNode node;
  node.name = std::move(name);
  nodes_.push_back(std::move(node));
  return static_cast<NodeId>(nodes_.size() - 1);
}

void Application::set_node_cluster(NodeId node, ClusterId cluster) {
  nodes_[index_of(node)].cluster = cluster;
  finalized_ = false;
}

void Application::add_gateway(NodeId node, std::vector<ClusterId> bridges) {
  nodes_[index_of(node)].bridges = std::move(bridges);
  finalized_ = false;
}

void Application::set_cluster_backend(ClusterId cluster, ClusterBackendKind kind) {
  const std::size_t c = index_of(cluster);
  if (cluster_backends_.size() <= c) {
    cluster_backends_.resize(c + 1, ClusterBackendKind::FlexRay);
  }
  cluster_backends_[c] = kind;
  finalized_ = false;
}

GraphId Application::add_graph(std::string name, Time period, Time deadline) {
  graphs_.push_back(TaskGraph{std::move(name), period, deadline});
  return static_cast<GraphId>(graphs_.size() - 1);
}

TaskId Application::add_task(GraphId graph, std::string name, NodeId node, Time wcet,
                             TaskPolicy policy, int priority) {
  Task t;
  t.name = std::move(name);
  t.graph = graph;
  t.node = node;
  t.wcet = wcet;
  t.policy = policy;
  t.priority = priority;
  tasks_.push_back(std::move(t));
  finalized_ = false;
  return static_cast<TaskId>(tasks_.size() - 1);
}

MessageId Application::add_message(GraphId graph, std::string name, TaskId sender,
                                   TaskId receiver, int size_bytes, MessageClass cls,
                                   int priority) {
  Message m;
  m.name = std::move(name);
  m.graph = graph;
  m.sender = sender;
  m.receiver = receiver;
  m.size_bytes = size_bytes;
  m.cls = cls;
  m.priority = priority;
  messages_.push_back(std::move(m));
  finalized_ = false;
  return static_cast<MessageId>(messages_.size() - 1);
}

void Application::add_dependency(TaskId from, TaskId to) {
  task_deps_.emplace_back(from, to);
  finalized_ = false;
}

void Application::set_task_deadline(TaskId task, Time deadline) {
  tasks_[index_of(task)].deadline = deadline;
  if (finalized_) derive_deadlines();
}

void Application::set_message_deadline(MessageId message, Time deadline) {
  messages_[index_of(message)].deadline = deadline;
  if (finalized_) derive_deadlines();
}

void Application::set_task_release_offset(TaskId task, Time offset) {
  tasks_[index_of(task)].release_offset = offset;
}

void Application::set_task_wcet(TaskId task, Time wcet) { tasks_[index_of(task)].wcet = wcet; }

void Application::set_message_size(MessageId message, int size_bytes) {
  messages_[index_of(message)].size_bytes = size_bytes;
}

void Application::set_graph_deadline(GraphId graph, Time deadline) {
  graphs_[index_of(graph)].deadline = deadline;
  if (finalized_) derive_deadlines();
}

Expected<bool> Application::finalize() {
  if (nodes_.empty()) return make_error("application has no processing nodes");
  if (tasks_.empty()) return make_error("application has no tasks");

  // Basic element validation.
  for (const auto& g : graphs_) {
    if (g.period <= 0) return make_error("graph '" + g.name + "' has non-positive period");
    if (g.deadline <= 0) return make_error("graph '" + g.name + "' has non-positive deadline");
  }
  for (const auto& t : tasks_) {
    if (t.wcet <= 0) return make_error("task '" + t.name + "' has non-positive WCET");
    if (t.release_offset < 0) {
      return make_error("task '" + t.name + "' has negative release offset");
    }
    if (index_of(t.node) >= nodes_.size()) {
      return make_error("task '" + t.name + "' mapped to unknown node");
    }
    if (index_of(t.graph) >= graphs_.size()) {
      return make_error("task '" + t.name + "' in unknown graph");
    }
  }
  for (const auto& m : messages_) {
    if (m.size_bytes <= 0) return make_error("message '" + m.name + "' has non-positive size");
    if (index_of(m.sender) >= tasks_.size() || index_of(m.receiver) >= tasks_.size()) {
      return make_error("message '" + m.name + "' references unknown task");
    }
    const Task& snd = tasks_[index_of(m.sender)];
    const Task& rcv = tasks_[index_of(m.receiver)];
    if (snd.node == rcv.node) {
      return make_error("message '" + m.name + "' connects tasks on the same node " +
                        "(intra-node comms are part of the WCET)");
    }
    if (snd.graph != m.graph || rcv.graph != m.graph) {
      return make_error("message '" + m.name + "' crosses task graphs");
    }
    if (m.cls == MessageClass::Static && snd.policy != TaskPolicy::Scs) {
      return make_error("ST message '" + m.name + "' must be produced by an SCS task " +
                        "(its slot is fixed in the schedule table)");
    }
  }
  for (const auto& [from, to] : task_deps_) {
    if (index_of(from) >= tasks_.size() || index_of(to) >= tasks_.size()) {
      return make_error("dependency references unknown task");
    }
    if (tasks_[index_of(from)].graph != tasks_[index_of(to)].graph) {
      return make_error("dependency crosses task graphs");
    }
  }

  if (auto routes = derive_routes(); !routes.ok()) return routes.error();

  if (cluster_backends_.size() > cluster_count_) {
    return make_error("cluster backend declared for cluster " +
                      std::to_string(cluster_backends_.size() - 1) + " but only " +
                      std::to_string(cluster_count_) + " cluster(s) exist");
  }

  // Build adjacency over activities.
  const std::size_t n = activity_count();
  preds_.assign(n, {});
  succs_.assign(n, {});
  auto link = [&](ActivityRef from, ActivityRef to) {
    succs_[activity_slot(from)].push_back(to);
    preds_[activity_slot(to)].push_back(from);
  };
  for (std::uint32_t i = 0; i < messages_.size(); ++i) {
    const auto mref = ActivityRef::message(static_cast<MessageId>(i));
    link(ActivityRef::task(messages_[i].sender), mref);
    link(mref, ActivityRef::task(messages_[i].receiver));
  }
  for (const auto& [from, to] : task_deps_) {
    link(ActivityRef::task(from), ActivityRef::task(to));
  }

  // SCS tasks may only depend on time-triggered activities: a table-driven
  // start time cannot honour an event-triggered arrival.
  for (std::uint32_t i = 0; i < tasks_.size(); ++i) {
    if (tasks_[i].policy != TaskPolicy::Scs) continue;
    for (const ActivityRef p : preds_[activity_slot(ActivityRef::task(static_cast<TaskId>(i)))]) {
      const bool tt = p.is_task() ? tasks_[p.index].policy == TaskPolicy::Scs
                                  : messages_[p.index].cls == MessageClass::Static;
      if (!tt) {
        return make_error("SCS task '" + tasks_[i].name +
                          "' depends on an event-triggered activity");
      }
    }
  }

  // Kahn topological sort; also detects cycles.
  std::vector<std::size_t> indegree(n);
  for (std::size_t a = 0; a < n; ++a) indegree[a] = preds_[a].size();
  auto ref_of_slot = [&](std::size_t slot) {
    return slot < tasks_.size()
               ? ActivityRef::task(static_cast<TaskId>(slot))
               : ActivityRef::message(static_cast<MessageId>(slot - tasks_.size()));
  };
  std::queue<std::size_t> ready;
  for (std::size_t a = 0; a < n; ++a) {
    if (indegree[a] == 0) ready.push(a);
  }
  topo_order_.clear();
  topo_order_.reserve(n);
  while (!ready.empty()) {
    const std::size_t slot = ready.front();
    ready.pop();
    topo_order_.push_back(ref_of_slot(slot));
    for (const ActivityRef s : succs_[slot]) {
      if (--indegree[activity_slot(s)] == 0) ready.push(activity_slot(s));
    }
  }
  if (topo_order_.size() != n) return make_error("precedence constraints contain a cycle");

  derive_deadlines();
  finalized_ = true;
  return true;
}

void Application::derive_deadlines() {
  deadlines_.clear();
  deadlines_.reserve(activity_count());
  for (std::uint32_t t = 0; t < tasks_.size(); ++t) {
    deadlines_.push_back(effective_deadline(ActivityRef::task(static_cast<TaskId>(t))));
  }
  for (std::uint32_t m = 0; m < messages_.size(); ++m) {
    deadlines_.push_back(effective_deadline(ActivityRef::message(static_cast<MessageId>(m))));
  }
}

Expected<bool> Application::derive_routes() {
  // Cluster universe from node homes and gateway bridges; indices must be
  // contiguous from 0 so per-cluster containers can be plain vectors.
  std::uint32_t max_cluster = 0;
  for (const auto& node : nodes_) {
    max_cluster = std::max(max_cluster, index_of(node.cluster));
    for (const ClusterId b : node.bridges) max_cluster = std::max(max_cluster, index_of(b));
  }
  cluster_count_ = static_cast<std::size_t>(max_cluster) + 1;
  std::vector<char> used(cluster_count_, 0);
  for (const auto& node : nodes_) {
    used[index_of(node.cluster)] = 1;
    for (const ClusterId b : node.bridges) used[index_of(b)] = 1;
  }
  for (std::size_t c = 0; c < cluster_count_; ++c) {
    if (!used[c]) {
      return make_error("cluster indices must be contiguous: cluster " + std::to_string(c) +
                        " is unused while cluster " + std::to_string(cluster_count_ - 1) +
                        " exists");
    }
  }

  for (const auto& node : nodes_) {
    for (std::size_t i = 0; i < node.bridges.size(); ++i) {
      if (node.bridges[i] == node.cluster) {
        return make_error("gateway '" + node.name + "' bridges its own home cluster");
      }
      for (std::size_t j = i + 1; j < node.bridges.size(); ++j) {
        if (node.bridges[i] == node.bridges[j]) {
          return make_error("gateway '" + node.name + "' lists a bridged cluster twice");
        }
      }
    }
  }
  // Gateways host only the relay activities the system projection derives;
  // application tasks on a bridging CPU would be analysed once per member
  // cluster and double-count its load.
  for (const auto& t : tasks_) {
    if (nodes_[index_of(t.node)].is_gateway()) {
      return make_error("task '" + t.name + "' is mapped onto gateway node '" +
                        nodes_[index_of(t.node)].name + "' (gateways only forward messages)");
    }
  }

  // Cluster adjacency: a gateway connects every pair of its member clusters;
  // per pair the lowest-indexed gateway node forwards (deterministic).
  const std::size_t C = cluster_count_;
  std::vector<int> pair_gateway(C * C, -1);
  for (std::uint32_t n = 0; n < nodes_.size(); ++n) {
    const auto& node = nodes_[n];
    if (!node.is_gateway()) continue;
    std::vector<std::uint32_t> members{index_of(node.cluster)};
    for (const ClusterId b : node.bridges) members.push_back(index_of(b));
    for (std::size_t i = 0; i < members.size(); ++i) {
      for (std::size_t j = 0; j < members.size(); ++j) {
        if (i == j) continue;
        int& slot = pair_gateway[members[i] * C + members[j]];
        if (slot < 0) slot = static_cast<int>(n);
      }
    }
  }

  routes_.assign(messages_.size(), MessageRoute{});
  cross_cluster_messages_ = false;
  // Per-source BFS parents are deterministic (clusters visited in ascending
  // index order), so routes never depend on container ordering.
  std::vector<int> parent(C);
  for (std::uint32_t m = 0; m < messages_.size(); ++m) {
    const std::uint32_t from = index_of(cluster_of(messages_[m].sender));
    const std::uint32_t to = index_of(cluster_of(messages_[m].receiver));
    MessageRoute& route = routes_[m];
    if (from == to) {
      route.clusters = {static_cast<ClusterId>(from)};
      continue;
    }
    std::fill(parent.begin(), parent.end(), -1);
    parent[from] = static_cast<int>(from);
    std::queue<std::uint32_t> frontier;
    frontier.push(from);
    while (!frontier.empty() && parent[to] < 0) {
      const std::uint32_t c = frontier.front();
      frontier.pop();
      for (std::uint32_t next = 0; next < C; ++next) {
        if (parent[next] >= 0 || pair_gateway[c * C + next] < 0) continue;
        parent[next] = static_cast<int>(c);
        frontier.push(next);
      }
    }
    if (parent[to] < 0) {
      return make_error("message '" + messages_[m].name + "' crosses from cluster " +
                        std::to_string(from) + " to cluster " + std::to_string(to) +
                        " but no gateway route connects them");
    }
    // Gateway forwarding is event-triggered (store-and-forward relays are
    // FPS), so neither the message class nor the receiver may be
    // time-triggered: a schedule table cannot honour a cross-bus arrival.
    if (messages_[m].cls != MessageClass::Dynamic) {
      return make_error("cross-cluster message '" + messages_[m].name +
                        "' must use the dynamic segment (TT gateway forwarding is not "
                        "modelled)");
    }
    if (tasks_[index_of(messages_[m].receiver)].policy == TaskPolicy::Scs) {
      return make_error("cross-cluster message '" + messages_[m].name +
                        "' is received by an SCS task (cross-cluster receivers must be FPS)");
    }
    std::vector<std::uint32_t> path;
    for (std::uint32_t c = to; c != from; c = static_cast<std::uint32_t>(parent[c])) {
      path.push_back(c);
    }
    path.push_back(from);
    std::reverse(path.begin(), path.end());
    route.clusters.reserve(path.size());
    for (const std::uint32_t c : path) route.clusters.push_back(static_cast<ClusterId>(c));
    route.gateways.reserve(path.size() - 1);
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      route.gateways.push_back(
          static_cast<NodeId>(static_cast<std::uint32_t>(pair_gateway[path[i] * C + path[i + 1]])));
    }
    cross_cluster_messages_ = true;
  }
  return true;
}

void Application::require_finalized() const {
  if (!finalized_) throw std::logic_error("Application must be finalized before analysis queries");
}

const std::vector<ActivityRef>& Application::predecessors(ActivityRef a) const {
  require_finalized();
  return preds_[activity_slot(a)];
}

const std::vector<ActivityRef>& Application::successors(ActivityRef a) const {
  require_finalized();
  return succs_[activity_slot(a)];
}

const std::vector<ActivityRef>& Application::topological_order() const {
  require_finalized();
  return topo_order_;
}

GraphId Application::graph_of(ActivityRef a) const {
  return a.is_task() ? tasks_[a.index].graph : messages_[a.index].graph;
}

Time Application::model_cost(ActivityRef a) const {
  return a.is_task() ? tasks_[a.index].wcet : 0;
}

Time Application::effective_deadline(ActivityRef a) const {
  const Time individual = a.is_task() ? tasks_[a.index].deadline : messages_[a.index].deadline;
  if (individual != kTimeNone) return individual;
  return graphs_[index_of(graph_of(a))].deadline;
}

const std::string& Application::activity_name(ActivityRef a) const {
  return a.is_task() ? tasks_[a.index].name : messages_[a.index].name;
}

Time Application::period_of(ActivityRef a) const {
  return graphs_[index_of(graph_of(a))].period;
}

Expected<Time> Application::hyperperiod() const {
  std::vector<std::int64_t> periods;
  periods.reserve(graphs_.size());
  for (const auto& g : graphs_) periods.push_back(g.period);
  return flexopt::hyperperiod(periods);
}

Time Application::longest_path_to(ActivityRef a, std::span<const Time> message_costs) const {
  require_finalized();
  std::vector<Time> lp(activity_count(), 0);
  auto cost_of = [&](ActivityRef r) {
    if (r.is_task()) return tasks_[r.index].wcet;
    return r.index < message_costs.size() ? message_costs[r.index] : Time{0};
  };
  for (const ActivityRef r : topo_order_) {
    Time best_pred = 0;
    for (const ActivityRef p : preds_[activity_slot(r)]) {
      best_pred = std::max(best_pred, lp[activity_slot(p)]);
    }
    lp[activity_slot(r)] = best_pred + cost_of(r);
  }
  return lp[activity_slot(a)];
}

Time Application::criticality(MessageId m, std::span<const Time> message_costs) const {
  const auto mref = ActivityRef::message(m);
  return effective_deadline(mref) - longest_path_to(mref, message_costs);
}

double Application::node_utilization(NodeId node) const {
  double u = 0.0;
  for (const auto& t : tasks_) {
    if (t.node != node) continue;
    u += static_cast<double>(t.wcet) / static_cast<double>(graphs_[index_of(t.graph)].period);
  }
  return u;
}

}  // namespace flexopt
