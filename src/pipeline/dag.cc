#include "pipeline/dag.h"

#include <deque>

#include "common/strings.h"
#include "sql/parser.h"

namespace bauplan::pipeline {

TopologicalOrder SortTopologically(
    const std::vector<std::string>& nodes,
    const std::function<const std::vector<std::string>&(
        const std::string&)>& upstream_of) {
  // Unmet upstream reads per node, and who reads each node.
  std::map<std::string, int> waiting;
  for (const auto& name : nodes) waiting[name] = 0;
  std::map<std::string, std::vector<std::string>> readers;
  for (const auto& name : nodes) {
    for (const auto& up : upstream_of(name)) {
      if (waiting.count(up) == 0) continue;
      readers[up].push_back(name);
      ++waiting[name];
    }
  }
  // A deque keeps the FIFO pop O(1); erasing the front of a vector is
  // O(n) per node, quadratic over wide DAGs.
  std::deque<std::string> ready;
  for (const auto& name : nodes) {
    if (waiting[name] == 0) ready.push_back(name);
  }
  TopologicalOrder sorted;
  while (!ready.empty()) {
    std::string current = std::move(ready.front());
    ready.pop_front();
    for (const auto& reader : readers[current]) {
      if (--waiting[reader] == 0) ready.push_back(reader);
    }
    sorted.order.push_back(std::move(current));
  }
  for (const auto& [name, count] : waiting) {
    if (count > 0) sorted.blocked.push_back(name);
  }
  return sorted;
}

Result<Dag> Dag::Build(const PipelineProject& project,
                       const std::set<std::string>& known_tables) {
  Dag dag;
  // Resolve references.
  for (const auto& node : project.nodes()) {
    DagNode entry;
    entry.node = &node;
    std::vector<std::string> refs;
    if (node.kind == NodeKind::kSqlModel) {
      BAUPLAN_ASSIGN_OR_RETURN(refs,
                               sql::ExtractTableReferences(node.code));
    } else {
      BAUPLAN_ASSIGN_OR_RETURN(std::string target,
                               node.ExpectationTarget());
      refs.push_back(std::move(target));
    }
    for (const auto& ref : refs) {
      if (ref == node.name) {
        return Status::InvalidArgument(
            StrCat("node '", node.name, "' references itself"));
      }
      if (project.FindNode(ref) != nullptr) {
        entry.upstream_nodes.push_back(ref);
      } else if (known_tables.count(ref) > 0) {
        entry.source_tables.push_back(ref);
      } else {
        return Status::NotFound(
            StrCat("node '", node.name, "' references '", ref,
                   "', which is neither a pipeline node nor a table in ",
                   "the catalog"));
      }
    }
    dag.nodes_.emplace(node.name, std::move(entry));
  }

  // Project order breaks ties, so the order is deterministic.
  std::vector<std::string> names;
  for (const auto& node : project.nodes()) names.push_back(node.name);
  TopologicalOrder sorted = SortTopologically(
      names, [&](const std::string& name) -> const std::vector<std::string>& {
        return dag.nodes_.at(name).upstream_nodes;
      });
  if (!sorted.blocked.empty()) {
    return Status::InvalidArgument(
        StrCat("pipeline has a dependency cycle involving: ",
               StrJoin(sorted.blocked, ", ")));
  }
  dag.order_ = std::move(sorted.order);
  return dag;
}

std::set<std::string> Dag::AllSourceTables() const {
  std::set<std::string> out;
  for (const auto& [name, node] : nodes_) {
    out.insert(node.source_tables.begin(), node.source_tables.end());
  }
  return out;
}

Result<std::vector<std::string>> Dag::DescendantsOf(
    const std::string& root) const {
  if (nodes_.count(root) == 0) {
    return Status::NotFound(StrCat("no node named '", root, "'"));
  }
  std::set<std::string> selected = {root};
  // order_ is topological, so one forward pass closes the set.
  for (const auto& name : order_) {
    const DagNode& node = nodes_.at(name);
    for (const auto& up : node.upstream_nodes) {
      if (selected.count(up) > 0) {
        selected.insert(name);
        break;
      }
    }
  }
  std::vector<std::string> out;
  for (const auto& name : order_) {
    if (selected.count(name) > 0) out.push_back(name);
  }
  return out;
}

std::string Dag::ToString() const {
  std::string out;
  for (const auto& name : order_) {
    const DagNode& node = nodes_.at(name);
    out += name;
    out += node.node->kind == NodeKind::kExpectation ? " [expectation]"
                                                     : " [sql]";
    std::vector<std::string> inputs = node.source_tables;
    for (const auto& up : node.upstream_nodes) {
      inputs.push_back(up);
    }
    if (!inputs.empty()) {
      out += StrCat(" <- ", StrJoin(inputs, ", "));
    }
    out += "\n";
  }
  return out;
}

}  // namespace bauplan::pipeline
