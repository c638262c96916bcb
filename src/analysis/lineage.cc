#include "analysis/lineage.h"

#include <algorithm>
#include <set>
#include <utility>

#include "common/strings.h"
#include "expectations/expectation.h"
#include "sql/optimizer.h"

namespace bauplan::analysis {

using pipeline::NodeKind;
using pipeline::PipelineNode;
using pipeline::PipelineProject;

namespace {

/// Collects each scan's read set: the columns projection pushdown left
/// in `scan_columns`, or the scan's whole schema when nothing was
/// trimmed (empty scan_columns = read everything).
void CollectScanReads(const sql::PlanPtr& plan,
                      std::map<std::string, std::set<std::string>>* reads) {
  if (plan == nullptr) return;
  if (plan->kind == sql::PlanKind::kScan && !plan->empty_scan) {
    std::set<std::string>& columns = (*reads)[plan->table_name];
    if (plan->scan_columns.empty()) {
      for (const auto& f : plan->schema.fields()) columns.insert(f.name);
    } else {
      columns.insert(plan->scan_columns.begin(), plan->scan_columns.end());
    }
  }
  for (const auto& child : plan->children) CollectScanReads(child, reads);
}

const char* ConsumerKindName(ColumnConsumer::Kind kind) {
  switch (kind) {
    case ColumnConsumer::Kind::kNode:
      return "node";
    case ColumnConsumer::Kind::kExpectation:
      return "expectation";
    case ColumnConsumer::Kind::kTerminal:
      return "output";
  }
  return "unknown";
}

}  // namespace

LineageGraph BuildLineage(const PipelineProject& project,
                          const std::map<std::string, sql::PlanPtr>& plans) {
  // First pass: nodes, read sets, outputs. Projection pushdown alone
  // computes the exact per-scan read sets; every other rewrite is noise
  // for lineage purposes.
  sql::OptimizerOptions opts;
  opts.pushdown_predicates = false;
  opts.pushdown_filters = false;
  opts.fold_constants = false;
  opts.prune_contradictions = false;
  opts.trim_output_columns = false;
  std::map<std::string, LineageNode> nodes;
  for (const auto& [name, plan] : plans) {
    auto optimized = sql::OptimizePlan(plan, opts);
    if (!optimized.ok()) continue;
    LineageNode& ln = nodes[name];
    ln.name = name;
    std::map<std::string, std::set<std::string>> reads;
    CollectScanReads(*optimized, &reads);
    for (auto& [table, columns] : reads) {
      ln.reads[table] =
          std::vector<std::string>(columns.begin(), columns.end());
    }
    for (const auto& f : (*optimized)->schema.fields()) {
      ln.outputs.push_back(f.name);
      ln.consumers[f.name];  // materialize the (possibly empty) entry
    }
  }

  // Second pass: wire consumers.
  for (auto& [reader_name, reader] : nodes) {
    for (const auto& [input, columns] : reader.reads) {
      auto it = nodes.find(input);
      if (it == nodes.end()) continue;  // catalog source table
      it->second.terminal = false;
      for (const std::string& column : columns) {
        auto entry = it->second.consumers.find(column);
        if (entry == it->second.consumers.end()) continue;
        entry->second.push_back(
            {ColumnConsumer::Kind::kNode, reader_name});
      }
    }
  }
  for (const PipelineNode& node : project.nodes()) {
    if (node.kind != NodeKind::kExpectation) continue;
    auto target = node.ExpectationTarget();
    if (!target.ok()) continue;
    auto it = nodes.find(*target);
    if (it == nodes.end()) continue;
    auto spec = expectations::ParseExpectationSpec(node.code);
    if (!spec.ok() || spec->column.empty()) continue;
    auto entry = it->second.consumers.find(spec->column);
    if (entry == it->second.consumers.end()) continue;
    entry->second.push_back(
        {ColumnConsumer::Kind::kExpectation, node.name});
  }
  // Terminal nodes: the materialized artifact is the product, so the
  // output itself consumes every column.
  for (auto& [name, node] : nodes) {
    if (!node.terminal) continue;
    for (auto& [column, consumers] : node.consumers) {
      consumers.push_back({ColumnConsumer::Kind::kTerminal, ""});
    }
  }
  return LineageGraph(std::move(nodes));
}

std::vector<std::string> LineageGraph::DeadColumns(
    const std::string& node) const {
  std::vector<std::string> dead;
  auto it = nodes_.find(node);
  if (it == nodes_.end() || it->second.terminal) return dead;
  for (const std::string& column : it->second.outputs) {
    auto entry = it->second.consumers.find(column);
    if (entry == it->second.consumers.end() || entry->second.empty()) {
      dead.push_back(column);
    }
  }
  return dead;
}

std::map<std::string, std::vector<std::string>>
LineageGraph::RequiredOutputColumns() const {
  std::map<std::string, std::vector<std::string>> required;
  for (const auto& [name, node] : nodes_) {
    if (node.terminal) continue;
    std::vector<std::string> live;
    for (const std::string& column : node.outputs) {
      auto entry = node.consumers.find(column);
      if (entry != node.consumers.end() && !entry->second.empty()) {
        live.push_back(column);
      }
    }
    if (live.size() < node.outputs.size()) required[name] = live;
  }
  return required;
}

std::string LineageGraph::ToText() const {
  std::string out =
      StrCat("lineage: ", nodes_.size(), " node(s)\n");
  for (const auto& [name, node] : nodes_) {
    out += StrCat("node ", name, node.terminal ? " (terminal)" : "", "\n");
    for (const auto& [input, columns] : node.reads) {
      out += StrCat("  reads ", input, ": ", StrJoin(columns, ", "), "\n");
    }
    for (const std::string& column : node.outputs) {
      out += StrCat("  column ", column, " -> ");
      auto entry = node.consumers.find(column);
      if (entry == node.consumers.end() || entry->second.empty()) {
        out += "(dead)\n";
        continue;
      }
      for (size_t i = 0; i < entry->second.size(); ++i) {
        const ColumnConsumer& c = entry->second[i];
        if (i > 0) out += ", ";
        out += c.kind == ColumnConsumer::Kind::kTerminal
                   ? "output"
                   : StrCat(ConsumerKindName(c.kind), " ", c.name);
      }
      out += "\n";
    }
  }
  return out;
}

std::string LineageGraph::ToJson() const {
  std::string out = StrCat("{\"version\":1,\"nodes\":[");
  bool first_node = true;
  for (const auto& [name, node] : nodes_) {
    if (!first_node) out += ",";
    first_node = false;
    out += StrCat("{\"name\":\"", EscapeJson(name), "\",\"terminal\":",
                  node.terminal ? "true" : "false", ",\"reads\":{");
    bool first_read = true;
    for (const auto& [input, columns] : node.reads) {
      if (!first_read) out += ",";
      first_read = false;
      out += StrCat("\"", EscapeJson(input), "\":[");
      for (size_t i = 0; i < columns.size(); ++i) {
        if (i > 0) out += ",";
        out += StrCat("\"", EscapeJson(columns[i]), "\"");
      }
      out += "]";
    }
    out += "},\"columns\":[";
    bool first_col = true;
    for (const std::string& column : node.outputs) {
      if (!first_col) out += ",";
      first_col = false;
      out += StrCat("{\"name\":\"", EscapeJson(column),
                    "\",\"consumers\":[");
      auto entry = node.consumers.find(column);
      if (entry != node.consumers.end()) {
        for (size_t i = 0; i < entry->second.size(); ++i) {
          const ColumnConsumer& c = entry->second[i];
          if (i > 0) out += ",";
          out += StrCat("{\"kind\":\"", ConsumerKindName(c.kind), "\"");
          if (!c.name.empty()) {
            out += StrCat(",\"name\":\"", EscapeJson(c.name), "\"");
          }
          out += "}";
        }
      }
      out += "]}";
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

}  // namespace bauplan::analysis
