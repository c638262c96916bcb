#include "cache/fingerprint.h"

#include <vector>

#include "common/hash.h"
#include "common/strings.h"

namespace bauplan::cache {

namespace {

/// Bumping this re-keys every cached artifact (cache format epoch).
constexpr std::string_view kKeySalt = "bpcache-v1";

/// Field separator that cannot appear ambiguously: every component is
/// length-prefixed before it, so "a"+"bc" never collides with "ab"+"c".
void AppendComponent(std::string& acc, std::string_view component) {
  acc += StrCat(component.size(), ":");
  acc += component;
}

}  // namespace

const std::string& NodeFingerprints::Find(const std::string& name) const {
  static const std::string kEmpty;
  auto it = key_of.find(name);
  return it == key_of.end() ? kEmpty : it->second;
}

NodeFingerprints ComputeNodeFingerprints(
    const pipeline::Dag& dag, const std::set<std::string>& selected,
    const std::map<std::string, std::string>& tables) {
  NodeFingerprints fps;

  // Expectation specs per audited node, ordered by expectation name (the
  // execution order is topological, so collect once up front).
  std::map<std::string, std::map<std::string, std::string>> audits;
  for (const auto& name : dag.execution_order()) {
    const pipeline::PipelineNode& node = *dag.GetNode(name).node;
    if (node.kind != pipeline::NodeKind::kExpectation) continue;
    auto target = node.ExpectationTarget();
    if (target.ok()) audits[*target][name] = node.code;
  }

  for (const auto& name : dag.execution_order()) {
    if (selected.count(name) == 0) continue;
    const pipeline::DagNode& dag_node = dag.GetNode(name);
    const pipeline::PipelineNode& node = *dag_node.node;

    std::string acc;
    AppendComponent(acc, kKeySalt);
    // Code fingerprint: identity + logic + the package/env spec.
    AppendComponent(acc, node.kind == pipeline::NodeKind::kExpectation
                             ? "expectation"
                             : "sql_model");
    AppendComponent(acc, node.name);
    AppendComponent(acc, node.code);
    AppendComponent(acc, node.requirements.ToString());

    // Ordered input content ids. An unresolvable input makes the node
    // (and, through the chaining below, its whole cone) uncacheable.
    bool cacheable = true;
    for (const auto& up : dag_node.upstream_nodes) {
      if (selected.count(up) > 0) {
        const std::string& up_key = fps.Find(up);
        if (up_key.empty()) {
          cacheable = false;
          break;
        }
        AppendComponent(acc, StrCat("node:", up_key));
      } else {
        // Replayed upstream: materialized in the catalog; its content id
        // is the immutable table-metadata key at the pinned commit.
        auto it = tables.find(up);
        if (it == tables.end()) {
          cacheable = false;
          break;
        }
        AppendComponent(acc, StrCat("table:", it->second));
      }
    }
    if (cacheable) {
      for (const auto& table : dag_node.source_tables) {
        auto it = tables.find(table);
        if (it == tables.end()) {
          cacheable = false;
          break;
        }
        AppendComponent(acc, StrCat("table:", it->second));
      }
    }
    if (!cacheable) {
      fps.key_of[name] = "";
      continue;
    }

    // Post-audit contract: the specs vouching for this artifact key it.
    if (node.kind == pipeline::NodeKind::kSqlModel) {
      if (auto it = audits.find(name); it != audits.end()) {
        for (const auto& [audit_name, spec] : it->second) {
          AppendComponent(acc, StrCat("audit:", audit_name, "=", spec));
        }
      }
    }

    fps.key_of[name] = FingerprintHex(acc);
  }
  return fps;
}

NodeFingerprints ComputeNodeFingerprints(
    const pipeline::Dag& dag, const std::set<std::string>& selected,
    const catalog::Catalog* catalog, const std::string& ref) {
  const std::map<std::string, std::string> none;
  auto tables = catalog->GetTables(ref);
  return ComputeNodeFingerprints(dag, selected, tables.ok() ? *tables : none);
}

}  // namespace bauplan::cache
