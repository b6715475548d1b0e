#pragma once
/// \file graph.hpp
/// \brief ONNX-like computational graph IR.
///
/// A Graph is a DAG of Nodes built in topological order (every node's inputs
/// must already exist, so node-id order is a valid execution order). The
/// optimizer performs surgery via bypass()/replace_input(); dead nodes stay
/// in place (keeping ids stable) and are skipped by topo_order().

#include <cstdint>
#include <string>
#include <vector>

#include "graph/attr.hpp"
#include "graph/op.hpp"
#include "util/error.hpp"
#include "tensor/dtype.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace vedliot {

using NodeId = std::int32_t;

/// Exception for structural graph errors.
class GraphError : public Error {
 public:
  explicit GraphError(const std::string& message) : Error(message) {}
};

struct Node {
  NodeId id = -1;
  std::string name;
  OpKind kind = OpKind::kIdentity;
  AttrMap attrs;
  std::vector<NodeId> inputs;
  Shape out_shape;

  /// Trainable parameters; layout per kind:
  ///  Conv2d -> {weight [oc, ic/groups, kh, kw], bias [oc]?}
  ///  Dense  -> {weight [units, in], bias [units]?}
  ///  BatchNorm -> {gamma, beta, mean, var} each [C]
  /// May be empty when the graph is used purely analytically.
  std::vector<Tensor> weights;

  /// Storage dtype of the node's weights (set by quantization passes).
  DType weight_dtype = DType::kFP32;

  bool dead = false;
};

class Graph {
 public:
  explicit Graph(std::string name);

  const std::string& name() const { return name_; }

  /// Add a graph input with a fixed shape.
  NodeId add_input(const std::string& name, Shape shape);

  /// Add an operator node. All inputs must already exist and be live.
  /// Shape inference runs immediately; throws GraphError on invalid use.
  NodeId add(OpKind kind, const std::string& name, std::vector<NodeId> inputs,
             AttrMap attrs = {});

  Node& node(NodeId id);
  const Node& node(NodeId id) const;

  /// Find a live node by name; throws NotFound.
  NodeId find(const std::string& name) const;

  /// Total slots including dead nodes.
  std::size_t total_nodes() const { return nodes_.size(); }
  /// Live node count.
  std::size_t size() const;

  /// Live node ids in execution order.
  std::vector<NodeId> topo_order() const;

  /// Live nodes not consumed by any live node (the graph outputs).
  std::vector<NodeId> outputs() const;

  /// Live nodes of kind Input.
  std::vector<NodeId> inputs() const;

  /// Live consumers of a node.
  std::vector<NodeId> consumers(NodeId id) const;

  /// Remove a single-input node from the dataflow: consumers are rewired to
  /// its first input and the node is marked dead.
  void bypass(NodeId id);

  /// Replace every occurrence of \p old_input in \p node's input list.
  void replace_input(NodeId node, NodeId old_input, NodeId new_input);

  /// Re-run shape inference over the whole (live) graph; throws on mismatch.
  void infer_all();

  /// Shape inference for one node from its current inputs/attrs, without
  /// storing it. Lets analyses compare against the stored out_shape; throws
  /// GraphError on structurally broken nodes.
  Shape inferred_shape(NodeId id) const { return infer_shape(node(id)); }

  /// Monotonic mutation counter: bumped by every structural change
  /// (add/add_input/bypass/replace_input/infer_all/materialize_weights).
  /// Analyses key their caches on it.
  std::uint64_t version() const { return version_; }

  /// Mark the graph mutated through a non-member mutation (direct Node
  /// field edits via node()), invalidating cached analyses.
  void touch() { ++version_; }

  /// Structural validation: acyclicity by construction, live inputs, shapes.
  void validate() const;

  /// Analytic parameter count of one node (from attrs; no materialization).
  std::int64_t param_count(NodeId id) const;
  /// Analytic parameter count of the whole graph.
  std::int64_t total_params() const;

  /// Allocate and deterministically initialise weights for all parametric
  /// nodes (He-normal conv/dense, sane BatchNorm statistics).
  void materialize_weights(Rng& rng);

  /// True if every parametric live node has materialized weights.
  bool weights_materialized() const;

  /// Deep copy (used by optimization passes that keep the original).
  Graph clone() const;

 private:
  Shape infer_shape(const Node& n) const;
  void check_live(NodeId id) const;

  std::string name_;
  std::vector<Node> nodes_;
  std::uint64_t version_ = 0;
};

/// Deep copy of \p graph with every Input node's leading (batch) dimension
/// set to \p batch, shapes re-inferred throughout. Weights are shared by
/// value (copied), so the result executes identically per batch lane. The
/// executor takes the batch from its feeds, so serving needs no clone; the
/// fleet's analytic cost model (hw::estimate) prices each bucket width on one.
Graph rebatched(const Graph& graph, std::int64_t batch);

}  // namespace vedliot
