#ifndef BAUPLAN_PIPELINE_DAG_H_
#define BAUPLAN_PIPELINE_DAG_H_

#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/result.h"
#include "pipeline/project.h"

namespace bauplan::pipeline {

/// Kahn's algorithm over named nodes: what SortTopologically returns.
struct TopologicalOrder {
  /// Parents first.
  std::vector<std::string> order;
  /// Nodes a cycle blocks (on one, or downstream of one), sorted by
  /// name; empty for an acyclic graph.
  std::vector<std::string> blocked;
};

/// Topologically sorts `nodes`, where `upstream_of(n)` lists the names
/// node `n` reads; names outside `nodes` are not edges, and a name read
/// twice counts twice. Ready nodes leave first in, first out: those with
/// no upstream in `nodes` order, then each as its last upstream leaves,
/// so the caller's listing order makes the result deterministic.
TopologicalOrder SortTopologically(
    const std::vector<std::string>& nodes,
    const std::function<const std::vector<std::string>&(
        const std::string&)>& upstream_of);

/// One node of the extracted DAG with its resolved dependencies.
struct DagNode {
  const PipelineNode* node = nullptr;
  /// Upstream pipeline nodes (by name).
  std::vector<std::string> upstream_nodes;
  /// Source tables read from the lakehouse catalog.
  std::vector<std::string> source_tables;
};

/// The logical DAG extracted from a project: who reads whom, in a valid
/// execution order. This is the "logical plan" layer of the paper's
/// Fig. 3 — built purely from parsing and naming conventions, with no
/// imperative DAG construction.
class Dag {
 public:
  /// Extracts dependencies: SQL nodes depend on every FROM/JOIN reference
  /// (a pipeline node if one has that name, a source table otherwise);
  /// expectation nodes depend on their target via the naming convention.
  /// `known_tables` are the tables available in the catalog; a reference
  /// to neither a node nor a known table is NotFound. A cycle is
  /// InvalidArgument.
  static Result<Dag> Build(const PipelineProject& project,
                           const std::set<std::string>& known_tables);

  /// Node names in a topological order (parents first); deterministic.
  const std::vector<std::string>& execution_order() const {
    return order_;
  }

  const DagNode& GetNode(const std::string& name) const {
    return nodes_.at(name);
  }
  bool HasNode(const std::string& name) const {
    return nodes_.count(name) > 0;
  }

  /// Every source table any node reads.
  std::set<std::string> AllSourceTables() const;

  /// Downstream closure of `root` (root itself plus all transitive
  /// consumers), in execution order — the `-m pickups+` replay selector.
  Result<std::vector<std::string>> DescendantsOf(
      const std::string& root) const;

  /// Multi-line text rendering of the DAG (for `bauplan run --explain`).
  std::string ToString() const;

 private:
  std::map<std::string, DagNode> nodes_;
  std::vector<std::string> order_;
};

}  // namespace bauplan::pipeline

#endif  // BAUPLAN_PIPELINE_DAG_H_
