#pragma once

/// \file application.hpp
/// The application model of Section 4 of the paper: a set of directed,
/// acyclic, polar task graphs whose nodes are tasks (SCS or FPS) and
/// messages (ST or DYN), mapped onto processing nodes connected by one
/// FlexRay bus.
///
/// Conventions:
///  * Priorities: smaller numeric value = higher priority (classic RTA
///    convention), for both FPS tasks and DYN messages.
///  * Time: integral nanoseconds (flexopt::Time).
///  * Every task graph has a period and an end-to-end deadline; tasks and
///    messages may carry individual deadlines that override the graph's.

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "flexopt/model/cluster_backend.hpp"
#include "flexopt/model/ids.hpp"
#include "flexopt/util/expected.hpp"
#include "flexopt/util/time.hpp"

namespace flexopt {

/// Scheduling policy of a task (Section 2): static cyclic (table-driven,
/// non-preemptable) or fixed-priority (preemptive, runs in SCS slack).
enum class TaskPolicy { Scs, Fps };

/// Transmission class of a message: static segment (schedule-table driven)
/// or dynamic segment (FTDMA, FrameID + priority driven).
enum class MessageClass { Static, Dynamic };

struct ProcessingNode {
  std::string name;
  /// Home cluster (the FlexRay bus the node's controller is attached to).
  /// Every node of a plain single-bus application lives in cluster 0.
  ClusterId cluster{0};
  /// Additional clusters this node bridges as a gateway (empty for regular
  /// nodes).  A gateway has one controller per member cluster and forwards
  /// cross-cluster messages between them (store-and-forward).
  std::vector<ClusterId> bridges;

  [[nodiscard]] bool is_gateway() const { return !bridges.empty(); }
  /// Membership test over home cluster + bridged clusters.
  [[nodiscard]] bool in_cluster(ClusterId c) const;
};

/// Cluster path of a message from its sender's cluster to its receiver's,
/// derived by finalize(): `clusters` lists the visited clusters in order and
/// `gateways[i]` is the gateway node forwarding between clusters[i] and
/// clusters[i+1].  Intra-cluster messages have a single-element path.
struct MessageRoute {
  std::vector<ClusterId> clusters;
  std::vector<NodeId> gateways;

  [[nodiscard]] bool cross_cluster() const { return clusters.size() > 1; }
  /// Number of bus hops the payload takes (1 for intra-cluster).
  [[nodiscard]] std::size_t hop_count() const { return clusters.size(); }
};

struct Task {
  std::string name;
  GraphId graph{};
  NodeId node{};
  Time wcet = 0;
  TaskPolicy policy = TaskPolicy::Scs;
  /// FPS priority (ignored for SCS tasks); smaller = higher priority.
  int priority = 0;
  /// Optional individual deadline relative to the graph release;
  /// kTimeNone means "inherit the graph deadline".
  Time deadline = kTimeNone;
  /// Individual release time relative to the graph release (Section 4:
  /// "tasks can have associated individual release times"); the task is not
  /// ready before graph_release + release_offset.
  Time release_offset = 0;
};

struct Message {
  std::string name;
  GraphId graph{};
  TaskId sender{};
  TaskId receiver{};
  /// Payload size in bytes (Eq. 1 turns this into a communication time for
  /// a concrete bus; the model itself is bus-agnostic).
  int size_bytes = 0;
  MessageClass cls = MessageClass::Static;
  /// DYN arbitration priority among same-FrameID messages; smaller = higher.
  int priority = 0;
  Time deadline = kTimeNone;
};

struct TaskGraph {
  std::string name;
  Time period = 0;
  /// End-to-end deadline, relative to the graph release.
  Time deadline = 0;
};

/// A whole distributed application.  Build with the add_* methods, then
/// call `finalize()` once; analysis and optimisation operate on finalized
/// applications only.
class Application {
 public:
  // ---- construction ------------------------------------------------------
  NodeId add_node(std::string name);
  GraphId add_graph(std::string name, Time period, Time deadline);
  TaskId add_task(GraphId graph, std::string name, NodeId node, Time wcet,
                  TaskPolicy policy, int priority = 0);
  /// Adds a message and the implicit precedence sender -> message -> receiver.
  /// Sender and receiver must be mapped to different nodes (intra-node
  /// communication is folded into task WCETs per Section 4).
  MessageId add_message(GraphId graph, std::string name, TaskId sender, TaskId receiver,
                        int size_bytes, MessageClass cls, int priority = 0);
  /// Direct task->task precedence (tasks on the same node, or logical
  /// ordering without data transfer).
  void add_dependency(TaskId from, TaskId to);
  /// Moves a node to another cluster (default: cluster 0).  Cluster indices
  /// must be used contiguously from 0; finalize() validates that.
  void set_node_cluster(NodeId node, ClusterId cluster);
  /// Declares `node` a gateway bridging its home cluster and `bridges`.
  /// Gateways host only the relay activities the system projection derives
  /// (finalize() rejects application tasks mapped onto them).
  void add_gateway(NodeId node, std::vector<ClusterId> bridges);
  /// Declares which communication backend cluster `cluster` uses (default:
  /// FlexRay).  finalize() rejects declarations for clusters that do not
  /// exist.
  void set_cluster_backend(ClusterId cluster, ClusterBackendKind kind);
  void set_task_deadline(TaskId task, Time deadline);
  void set_task_release_offset(TaskId task, Time offset);
  /// Mutators used by generators for utilisation scaling.  Call before
  /// finalize() (they do not invalidate a finalized application's topology
  /// but analysis caches derived values, so re-finalize after mutating).
  void set_task_wcet(TaskId task, Time wcet);
  void set_message_size(MessageId message, int size_bytes);
  void set_graph_deadline(GraphId graph, Time deadline);
  void set_message_deadline(MessageId message, Time deadline);

  /// Validates the model and freezes derived structures (topological order,
  /// adjacency, per-graph membership, message routes).  Checks: non-empty,
  /// acyclic graphs, positive periods/WCETs, cross-node messaging, SCS tasks
  /// depend only on time-triggered activities, ST messages have SCS senders.
  /// Multi-cluster checks: contiguous cluster indices, no application tasks
  /// on gateway nodes, every cross-cluster message has a gateway route, is
  /// DYN-class, and is received by an FPS task (TT forwarding across
  /// gateways is not modelled).
  Expected<bool> finalize();
  [[nodiscard]] bool finalized() const { return finalized_; }

  // ---- element access ----------------------------------------------------
  [[nodiscard]] const std::vector<ProcessingNode>& nodes() const { return nodes_; }
  [[nodiscard]] const std::vector<Task>& tasks() const { return tasks_; }
  [[nodiscard]] const std::vector<Message>& messages() const { return messages_; }
  [[nodiscard]] const std::vector<TaskGraph>& graphs() const { return graphs_; }
  /// Explicit task->task dependencies (message-induced edges are implicit).
  [[nodiscard]] const std::vector<std::pair<TaskId, TaskId>>& dependencies() const {
    return task_deps_;
  }

  [[nodiscard]] const Task& task(TaskId id) const { return tasks_[index_of(id)]; }
  [[nodiscard]] const Message& message(MessageId id) const { return messages_[index_of(id)]; }
  [[nodiscard]] const TaskGraph& graph(GraphId id) const { return graphs_[index_of(id)]; }
  [[nodiscard]] const ProcessingNode& node(NodeId id) const { return nodes_[index_of(id)]; }

  // ---- cluster topology (finalized only for routes) -----------------------
  /// Number of clusters (1 + highest cluster index in use); 1 until nodes
  /// are assigned elsewhere.  Valid after finalize().
  [[nodiscard]] std::size_t cluster_count() const { return cluster_count_; }
  [[nodiscard]] ClusterId cluster_of(NodeId node) const {
    return nodes_[index_of(node)].cluster;
  }
  /// Home cluster of a task's node.
  [[nodiscard]] ClusterId cluster_of(TaskId task) const {
    return cluster_of(tasks_[index_of(task)].node);
  }
  /// Derived cluster path of a message (single element when intra-cluster).
  /// Valid after finalize().
  [[nodiscard]] const MessageRoute& route_of(MessageId m) const {
    return routes_[index_of(m)];
  }
  [[nodiscard]] bool has_cross_cluster_messages() const {
    return cross_cluster_messages_;
  }
  /// Communication backend of one cluster (FlexRay unless declared
  /// otherwise via set_cluster_backend()).
  [[nodiscard]] ClusterBackendKind cluster_backend(ClusterId cluster) const {
    const std::size_t c = index_of(cluster);
    return c < cluster_backends_.size() ? cluster_backends_[c] : ClusterBackendKind::FlexRay;
  }

  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] std::size_t task_count() const { return tasks_.size(); }
  [[nodiscard]] std::size_t message_count() const { return messages_.size(); }
  [[nodiscard]] std::size_t graph_count() const { return graphs_.size(); }
  /// Tasks plus messages.
  [[nodiscard]] std::size_t activity_count() const { return tasks_.size() + messages_.size(); }

  // ---- activity helpers (finalized only) ----------------------------------
  [[nodiscard]] const std::vector<ActivityRef>& predecessors(ActivityRef a) const;
  [[nodiscard]] const std::vector<ActivityRef>& successors(ActivityRef a) const;
  /// All activities in one global topological order (graph by graph).
  [[nodiscard]] const std::vector<ActivityRef>& topological_order() const;

  [[nodiscard]] GraphId graph_of(ActivityRef a) const;
  /// WCET for a task; for messages this is size-dependent and bus-specific,
  /// so the model returns 0 (the analysis substitutes Eq. 1).
  [[nodiscard]] Time model_cost(ActivityRef a) const;
  /// Effective deadline: the individual one if set, otherwise the graph's.
  [[nodiscard]] Time effective_deadline(ActivityRef a) const;
  /// effective_deadline of every activity, tasks then messages (index
  /// TaskId, then task_count() + MessageId): the flat table the cost
  /// function and the schedulers read per activity.  Built by finalize()
  /// and kept current by the deadline setters.
  [[nodiscard]] std::span<const Time> deadlines() const {
    require_finalized();
    return deadlines_;
  }
  [[nodiscard]] const std::string& activity_name(ActivityRef a) const;

  /// Period of the graph the activity belongs to.
  [[nodiscard]] Time period_of(ActivityRef a) const;

  /// Hyper-period: LCM of all graph periods.
  [[nodiscard]] Expected<Time> hyperperiod() const;

  /// Longest path (sum of task WCETs along the precedence chain; message
  /// cost taken from `message_costs`, indexed by message) from any graph
  /// source up to and including activity `a`.  This is LP_m in Eq. 4.
  [[nodiscard]] Time longest_path_to(ActivityRef a, std::span<const Time> message_costs) const;

  /// Criticality CP_m = D_m - LP_m (Eq. 4); smaller = more critical.
  [[nodiscard]] Time criticality(MessageId m, std::span<const Time> message_costs) const;

  /// Processor utilisation of one node: sum of task WCET/period.
  [[nodiscard]] double node_utilization(NodeId node) const;

 private:
  [[nodiscard]] std::size_t activity_slot(ActivityRef a) const {
    return a.is_task() ? a.index : tasks_.size() + a.index;
  }
  void require_finalized() const;

  std::vector<ProcessingNode> nodes_;
  std::vector<Task> tasks_;
  std::vector<Message> messages_;
  std::vector<TaskGraph> graphs_;

  /// Explicit task->task dependencies (message-induced edges are implicit).
  std::vector<std::pair<TaskId, TaskId>> task_deps_;

  Expected<bool> derive_routes();
  /// Refills deadlines_ from the individual and graph deadlines.
  void derive_deadlines();

  // Derived, filled by finalize():
  bool finalized_ = false;
  std::vector<std::vector<ActivityRef>> preds_;
  std::vector<std::vector<ActivityRef>> succs_;
  std::vector<ActivityRef> topo_order_;
  std::size_t cluster_count_ = 1;
  bool cross_cluster_messages_ = false;
  std::vector<MessageRoute> routes_;  ///< indexed by MessageId
  std::vector<Time> deadlines_;       ///< see deadlines()
  /// Declared backends, indexed by cluster; clusters beyond the vector are
  /// FlexRay.  finalize() validates indices against cluster_count_.
  std::vector<ClusterBackendKind> cluster_backends_;
};

}  // namespace flexopt
