#ifndef BAUPLAN_ANALYSIS_LINEAGE_H_
#define BAUPLAN_ANALYSIS_LINEAGE_H_

#include <map>
#include <string>
#include <vector>

#include "pipeline/project.h"
#include "sql/logical_plan.h"

/// Cross-pipeline column lineage: which columns every node reads from
/// each of its inputs, and which consumer (downstream node, expectation,
/// or the terminal output) reads each column a node produces. Built by
/// folding the logical plans the analyzer already made for every node —
/// the projection-pushdown pass computes the exact per-scan read sets,
/// so lineage is as precise as the optimizer itself.
///
/// Two consumers: `bauplan check --lineage` renders the graph, and a
/// verified `bauplan run --trim` derives each node's required output
/// columns from its pre-flight's graph (cross-node projection trimming
/// — a node only materializes columns somebody reads).
namespace bauplan::analysis {

/// One reader of a produced column.
struct ColumnConsumer {
  enum class Kind { kNode, kExpectation, kTerminal };
  Kind kind = Kind::kTerminal;
  /// Consumer node name; empty for the terminal output.
  std::string name;
};

/// Lineage facts for one SQL node.
struct LineageNode {
  std::string name;
  /// Input table -> columns the node's plan actually reads from it
  /// (sorted). Inputs are upstream nodes or catalog source tables.
  std::map<std::string, std::vector<std::string>> reads;
  /// Output columns in schema order.
  std::vector<std::string> outputs;
  /// Output column -> its readers. A column with no entry (or an empty
  /// list) on a non-terminal node is dead (BP4007).
  std::map<std::string, std::vector<ColumnConsumer>> consumers;
  /// No downstream SQL node reads this node: its whole output is the
  /// pipeline's product, so every column counts as consumed.
  bool terminal = true;
};

class LineageGraph {
 public:
  LineageGraph() = default;
  explicit LineageGraph(std::map<std::string, LineageNode> nodes)
      : nodes_(std::move(nodes)) {}

  /// Nodes keyed (and therefore rendered) by name.
  const std::map<std::string, LineageNode>& nodes() const {
    return nodes_;
  }

  /// Columns `node` produces that no downstream node or expectation
  /// reads. Empty for terminal nodes (the output itself consumes them)
  /// and unknown names.
  std::vector<std::string> DeadColumns(const std::string& node) const;

  /// Per-node required output columns for cross-node projection
  /// trimming: the union of every consumer's reads plus audited
  /// expectation columns. Nodes whose consumers read everything — and
  /// terminal nodes — have no entry (nothing to trim).
  std::map<std::string, std::vector<std::string>> RequiredOutputColumns()
      const;

  /// Multi-line human rendering for `check --lineage`.
  std::string ToText() const;
  /// Deterministic JSON rendering for `check --lineage --json`.
  std::string ToJson() const;

 private:
  std::map<std::string, LineageNode> nodes_;
};

/// Folds `plans` — the logical plan of each SQL node of `project` that
/// planned, by node name — into the lineage graph; `project` supplies
/// the expectations that read columns. A node without a plan is absent
/// (the analyzer already diagnosed it), so the graph is best-effort on
/// broken projects and exact on clean ones. Runs projection pushdown on
/// every plan in place, so callers read the plans before the fold.
LineageGraph BuildLineage(const pipeline::PipelineProject& project,
                          const std::map<std::string, sql::PlanPtr>& plans);

}  // namespace bauplan::analysis

#endif  // BAUPLAN_ANALYSIS_LINEAGE_H_
