#include "analysis/analyzer.h"

#include <algorithm>
#include <optional>
#include <vector>

#include "common/strings.h"
#include "expectations/expectation.h"
#include "pipeline/dag.h"
#include "sql/parser.h"

namespace bauplan::analysis {

using columnar::Schema;
using pipeline::NodeKind;
using pipeline::PipelineNode;
using pipeline::PipelineProject;

namespace {

/// Levenshtein distance, used for "did you mean" fix-it hints. Inputs
/// are identifiers, so quadratic cost is irrelevant.
size_t EditDistance(const std::string& a, const std::string& b) {
  std::vector<size_t> prev(b.size() + 1);
  std::vector<size_t> cur(b.size() + 1);
  for (size_t j = 0; j <= b.size(); ++j) prev[j] = j;
  for (size_t i = 1; i <= a.size(); ++i) {
    cur[0] = i;
    for (size_t j = 1; j <= b.size(); ++j) {
      size_t sub = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
    }
    std::swap(prev, cur);
  }
  return prev[b.size()];
}

/// The closest candidate within an edit-distance budget proportional to
/// the name's length, or empty when nothing is plausibly a typo.
std::string ClosestName(const std::string& name,
                        const std::set<std::string>& candidates) {
  std::string best;
  size_t best_distance = name.size() / 2 + 1;
  for (const auto& candidate : candidates) {
    if (candidate == name) continue;
    size_t d = EditDistance(name, candidate);
    if (d < best_distance) {
      best_distance = d;
      best = candidate;
    }
  }
  return best;
}

/// "a, b, c" rendering of a name set for hints.
std::string JoinNames(const std::set<std::string>& names) {
  std::string out;
  for (const auto& n : names) {
    if (!out.empty()) out += ", ";
    out += n;
  }
  return out;
}

/// "name(col1, col2, ...)" rendering of one table's columns for hints.
std::string DescribeSchema(const std::string& table, const Schema& schema) {
  std::string out = StrCat(table, "(");
  for (int i = 0; i < schema.num_fields(); ++i) {
    if (i > 0) out += ", ";
    out += schema.field(i).name;
  }
  out += ")";
  return out;
}

/// The loader's one-file-per-node convention, used as the diagnostic
/// source location even for in-memory projects.
std::string NodeLocation(const PipelineNode& node) {
  if (node.kind == NodeKind::kSqlModel) return StrCat(node.name, ".sql");
  return StrCat("expectations.conf: ", node.name);
}

/// Resolves scans against the schemas the analyzer inferred for upstream
/// nodes first, falling back to the catalog; this is how inferred columns
/// flow through the whole DAG.
class ChainedResolver : public sql::SchemaResolver {
 public:
  ChainedResolver(const std::map<std::string, Schema>* inferred,
                  const sql::SchemaResolver* fallback)
      : inferred_(inferred), fallback_(fallback) {}

  Result<Schema> GetTableSchema(
      const std::string& table_name) const override {
    auto it = inferred_->find(table_name);
    if (it != inferred_->end()) return it->second;
    if (fallback_ != nullptr) return fallback_->GetTableSchema(table_name);
    return Status::NotFound(
        StrCat("table '", table_name, "' not found"));
  }

 private:
  const std::map<std::string, Schema>* inferred_;
  const sql::SchemaResolver* fallback_;
};

/// Per-node facts shared between passes so each pass never re-parses.
struct NodeFacts {
  const PipelineNode* node = nullptr;
  /// Parsed statement for SQL nodes that parse; nullopt otherwise.
  std::optional<sql::SelectStatement> stmt;
  /// FROM/JOIN references (SQL nodes).
  std::vector<std::string> refs;
  /// Audited table (expectation nodes with a well-formed name).
  std::string target;
  /// True once any pass reported an error on this node; downstream
  /// passes skip it instead of cascading secondary noise.
  bool poisoned = false;
};

}  // namespace

AnalysisResult Analyzer::Analyze(const PipelineProject& project,
                                 const AnalyzerOptions& options) const {
  AnalysisResult result;
  DiagnosticEngine& diag = result.diagnostics;

  uint64_t analysis_span = 0;
  if (options.tracer != nullptr) {
    analysis_span = options.tracer->StartSpan(
        StrCat("analyze:", project.name()), observability::span_kind::kAnalysis,
        options.parent_span);
    options.tracer->AddAttribute(analysis_span, "project", project.name());
    result.root_span = analysis_span;
  }
  auto pass_span = [&](const char* name) -> uint64_t {
    if (options.tracer == nullptr) return 0;
    return options.tracer->StartSpan(name, observability::span_kind::kPass,
                                     analysis_span);
  };
  auto end_span = [&](uint64_t id) {
    if (options.tracer != nullptr && id != 0) options.tracer->EndSpan(id);
  };

  // ---------------------------------------------------------- setup
  // Parse every node once; collect the name universes the passes
  // resolve references against.
  std::map<std::string, NodeFacts> facts;
  std::set<std::string> sql_node_names;
  std::set<std::string> expectation_node_names;
  for (const PipelineNode& node : project.nodes()) {
    NodeFacts f;
    f.node = &node;
    if (node.kind == NodeKind::kSqlModel) {
      sql_node_names.insert(node.name);
      auto stmt = sql::ParseSelect(node.code);
      if (!stmt.ok()) {
        f.poisoned = true;
        Diagnostic& d = diag.Error(codes::kSqlParseError, node.name,
                                   stmt.status().message());
        d.location = NodeLocation(node);
        d.hint = "the node's SQL must be a single SELECT statement";
      } else {
        f.stmt = std::move(stmt).ValueOrDie();
        f.refs = f.stmt->ReferencedTables();
      }
    } else {
      expectation_node_names.insert(node.name);
      auto target = node.ExpectationTarget();
      if (!target.ok()) {
        // Unreachable through AddExpectationNode, which enforces the
        // naming convention; kept for snapshots of forward versions.
        f.poisoned = true;
        Diagnostic& d = diag.Error(codes::kBadExpectation, node.name,
                                   target.status().message());
        d.location = NodeLocation(node);
        d.hint = "name expectation nodes '<table>_expectation'";
      } else {
        f.target = std::move(target).ValueOrDie();
      }
    }
    facts.emplace(node.name, std::move(f));
  }

  // ------------------------------------------------- pass 1: structural
  uint64_t span = pass_span("structural");

  // Everything a FROM clause or expectation may legally reference: SQL
  // node outputs plus catalog tables at the checked ref.
  std::set<std::string> referenceable = sql_node_names;
  referenceable.insert(known_tables_.begin(), known_tables_.end());

  for (const PipelineNode& node : project.nodes()) {
    NodeFacts& f = facts.at(node.name);
    if (node.kind == NodeKind::kSqlModel) {
      for (const std::string& ref : f.refs) {
        if (referenceable.count(ref) > 0) continue;
        f.poisoned = true;
        Diagnostic& d = diag.Error(
            codes::kUnknownTable, node.name,
            StrCat("unknown table '", ref,
                   "': not a pipeline node and not in the catalog"));
        d.location = NodeLocation(node);
        if (expectation_node_names.count(ref) > 0) {
          d.hint = StrCat("'", ref,
                          "' is an expectation node; expectations audit "
                          "tables but do not produce them");
        } else {
          std::string suggestion = ClosestName(ref, referenceable);
          d.hint = suggestion.empty()
                       ? StrCat("referenceable tables: ",
                                JoinNames(referenceable))
                       : StrCat("did you mean '", suggestion, "'?");
        }
      }
      if (known_tables_.count(node.name) > 0) {
        Diagnostic& d = diag.Warning(
            codes::kDuplicateOutput, node.name,
            StrCat("output table '", node.name,
                   "' shadows an existing table in the catalog"));
        d.location = NodeLocation(node);
        d.hint = StrCat("each run overwrites '", node.name,
                        "' at merge; rename the node if that is not "
                        "intended");
      }
    } else if (!f.poisoned) {
      if (referenceable.count(f.target) == 0) {
        f.poisoned = true;
        Diagnostic& d = diag.Error(
            codes::kUnknownTable, node.name,
            StrCat("expectation audits unknown table '", f.target,
                   "': not a pipeline node and not in the catalog"));
        d.location = NodeLocation(node);
        std::string suggestion = ClosestName(f.target, referenceable);
        if (!suggestion.empty()) {
          d.hint = StrCat("did you mean '", suggestion, "_expectation'?");
        }
      } else if (sql_node_names.count(f.target) == 0) {
        // Audits a static catalog table: re-checks unchanged data every
        // run, which is almost always a typo'd target.
        Diagnostic& d = diag.Warning(
            codes::kDeadNode, node.name,
            StrCat("dead audit: no pipeline node produces '", f.target,
                   "', so this expectation re-checks the same catalog "
                   "table every run"));
        d.location = NodeLocation(node);
        d.hint = StrCat("point the expectation at a produced artifact (",
                        JoinNames(sql_node_names), ")");
      }
    }
  }

  // Cycle detection over project-internal edges (ref -> reader): Kahn
  // leaves behind whatever sits on (or downstream-inside) a cycle.
  const pipeline::TopologicalOrder sorted = pipeline::SortTopologically(
      std::vector<std::string>(sql_node_names.begin(), sql_node_names.end()),
      [&](const std::string& name) -> const std::vector<std::string>& {
        return facts.at(name).refs;
      });
  const std::vector<std::string>& topo_order = sorted.order;
  if (!sorted.blocked.empty()) {
    for (const std::string& name : sorted.blocked) {
      facts.at(name).poisoned = true;
    }
    Diagnostic d;
    d.code = codes::kDependencyCycle;
    d.severity = DiagnosticSeverity::kError;
    d.message = StrCat("dependency cycle among nodes: ",
                       StrJoin(sorted.blocked, ", "));
    d.hint =
        "a node may not read its own output (directly or transitively); "
        "remove one of the FROM references among these nodes";
    diag.Report(std::move(d));
  }
  end_span(span);

  // ----------------------------------------- pass 2: schema propagation
  // Fold each clean SQL node through the planner in topological order so
  // every node sees the inferred output schemas of its upstreams.
  span = pass_span("schema");
  ChainedResolver resolver(&result.node_schemas, catalog_schemas_);
  // Logical plans survive this pass for the linter and the lineage
  // fold: the interval pass walks filter predicates against each node's
  // *input* schemas, which only the planned tree knows.
  std::map<std::string, sql::PlanPtr> plans;
  for (const std::string& name : topo_order) {
    NodeFacts& f = facts.at(name);
    if (f.poisoned || !f.stmt.has_value()) continue;
    // Skip (quietly) nodes whose inputs have no schema to propagate: an
    // upstream that failed to plan, or a catalog table with no resolver.
    bool inputs_resolved = true;
    for (const std::string& ref : f.refs) {
      if (result.node_schemas.count(ref) > 0) continue;
      if (sql_node_names.count(ref) == 0 && catalog_schemas_ != nullptr) {
        continue;  // catalog table; resolver will supply it
      }
      inputs_resolved = false;
    }
    if (!inputs_resolved) continue;

    auto plan = sql::PlanQuery(*f.stmt, resolver);
    if (!plan.ok()) {
      f.poisoned = true;
      // The planner reports unknown columns as NotFound; an ON clause
      // with no equality between the sides is the cartesian-product
      // lint (BP4003); everything else (ambiguity, UNION shape, typing,
      // unknown functions) is a binding or type error.
      const bool unknown_column = plan.status().IsNotFound();
      const bool cartesian =
          plan.status().message().find(
              "JOIN ON must contain at least one equality") !=
          std::string::npos;
      Diagnostic& d = diag.Error(
          cartesian ? codes::kCartesianJoin
                    : (unknown_column ? codes::kUnknownColumn
                                      : codes::kTypeMismatch),
          name, plan.status().message());
      d.location = NodeLocation(*f.node);
      if (cartesian) {
        d.hint =
            "without an equality between the two sides the join degrades "
            "to a cartesian product; add an equi-join key to ON";
      }
      std::string inputs;
      for (const std::string& ref : f.refs) {
        auto schema = resolver.GetTableSchema(ref);
        if (!schema.ok()) continue;
        if (!inputs.empty()) inputs += "; ";
        inputs += DescribeSchema(ref, schema.ValueOrDie());
      }
      if (!cartesian && !inputs.empty()) {
        d.hint = StrCat("input columns: ", inputs);
      }
      continue;
    }
    plans[name] = plan.ValueOrDie();
    Schema inferred = plan.ValueOrDie()->schema;

    // A run replaces the catalog table with the node's output schema, so
    // readers outside the project see columns appear, vanish or change
    // type: flag column by column.
    if (known_tables_.count(name) > 0 && catalog_schemas_ != nullptr) {
      auto existing = catalog_schemas_->GetTableSchema(name);
      if (existing.ok()) {
        std::string conflicts;
        auto note = [&conflicts](std::string change) {
          if (!conflicts.empty()) conflicts += "; ";
          conflicts += change;
        };
        for (const columnar::Field& field :
             existing.ValueOrDie().fields()) {
          int idx = inferred.GetFieldIndex(field.name);
          if (idx < 0) {
            note(StrCat("drops column '", field.name, "'"));
          } else if (inferred.field(idx).type != field.type) {
            note(StrCat("changes '", field.name, "' from ",
                        columnar::TypeIdToString(field.type), " to ",
                        columnar::TypeIdToString(inferred.field(idx).type)));
          }
        }
        for (const columnar::Field& field : inferred.fields()) {
          if (!existing.ValueOrDie().HasField(field.name)) {
            note(StrCat("adds column '", field.name, "'"));
          }
        }
        if (!conflicts.empty()) {
          Diagnostic& d = diag.Warning(
              codes::kSchemaNarrowing, name,
              StrCat("replaces catalog table '", name,
                     "' with a different schema: ", conflicts));
          d.location = NodeLocation(*f.node);
          d.hint = StrCat("existing schema: ",
                          existing.ValueOrDie().ToString());
        }
      }
    }
    result.node_schemas.emplace(name, std::move(inferred));
  }
  end_span(span);

  // --------------------------------------------- pass 3: expectations
  span = pass_span("expectation");
  for (const PipelineNode& node : project.nodes()) {
    if (node.kind != NodeKind::kExpectation) continue;
    NodeFacts& f = facts.at(node.name);
    if (f.poisoned) continue;

    auto spec = expectations::ParseExpectationSpec(node.code);
    if (!spec.ok()) {
      Diagnostic& d = diag.Error(codes::kBadExpectation, node.name,
                                 spec.status().message());
      d.location = NodeLocation(node);
      d.hint =
          "expected one of: mean(col) > N, mean(col) between A and B, "
          "not_null(col), unique(col), values(col) between A and B, "
          "row_count between A and B";
      continue;
    }
    const expectations::ExpectationSpec& s = spec.ValueOrDie();
    if (s.column.empty()) continue;  // row_count needs no column

    // The audited table's schema: inferred for project nodes, resolved
    // from the catalog for source tables. Unavailable (upstream failed to
    // plan) means skip rather than guess.
    auto schema = resolver.GetTableSchema(f.target);
    if (!schema.ok()) continue;
    const Schema& target_schema = schema.ValueOrDie();

    auto field = target_schema.GetFieldByName(s.column);
    if (!field.ok()) {
      Diagnostic& d = diag.Error(
          codes::kExpectationUnknownColumn, node.name,
          StrCat("expectation references column '", s.column,
                 "' but table '", f.target, "' has no such column"));
      d.location = NodeLocation(node);
      std::set<std::string> columns;
      for (const columnar::Field& tf : target_schema.fields()) {
        columns.insert(tf.name);
      }
      std::string suggestion = ClosestName(s.column, columns);
      d.hint = suggestion.empty()
                   ? StrCat("columns of '", f.target,
                            "': ", JoinNames(columns))
                   : StrCat("did you mean '", suggestion, "'?");
      continue;
    }
    if (s.RequiresNumericColumn() &&
        !columnar::IsNumeric(field.ValueOrDie().type)) {
      Diagnostic& d = diag.Error(
          codes::kExpectationTypeMismatch, node.name,
          StrCat("expectation needs a numeric column but '", s.column,
                 "' of table '", f.target, "' is ",
                 columnar::TypeIdToString(field.ValueOrDie().type)));
      d.location = NodeLocation(node);
      d.hint =
          "mean(...) and values(...) only apply to int64, double or "
          "timestamp columns; use not_null/unique for other types";
    }
  }
  end_span(span);

  // --------------------------------------------------- pass 4: lint
  // Interval-domain predicate analysis per node (BP4001/BP4002/BP4005/
  // BP4006), statement-shape lints (BP4004), and the cross-pipeline
  // lineage fold for dead columns (BP4007).
  span = pass_span("lint");
  const size_t lint_start = diag.diagnostics().size();
  for (const std::string& name : topo_order) {
    NodeFacts& f = facts.at(name);
    if (f.poisoned || !f.stmt.has_value()) continue;
    const std::string location = NodeLocation(*f.node);
    LintStatement(*f.stmt, name, location, &diag);
    auto it = plans.find(name);
    if (it != plans.end()) LintPlan(it->second, name, location, &diag);
  }
  // Last reader of `plans`: the fold rewrites them in place.
  result.lineage = BuildLineage(project, plans);
  for (const auto& [name, lineage_node] : result.lineage.nodes()) {
    for (const std::string& column :
         result.lineage.DeadColumns(name)) {
      Diagnostic& d = diag.Warning(
          codes::kDeadColumn, name,
          StrCat("column '", column, "' is produced but never consumed ",
                 "by any downstream node, expectation, or terminal ",
                 "output"));
      auto fit = facts.find(name);
      if (fit != facts.end()) d.location = NodeLocation(*fit->second.node);
      d.hint = StrCat("drop '", column,
                      "' from the SELECT list, or let the runner trim it "
                      "(run --trim)");
    }
  }
  const size_t lint_findings = diag.diagnostics().size() - lint_start;
  if (options.metrics != nullptr) {
    options.metrics->GetCounter("analysis.lint.findings")
        ->Increment(static_cast<int64_t>(lint_findings));
  }
  if (options.tracer != nullptr && span != 0) {
    options.tracer->AddAttribute(span, "findings",
                                 std::to_string(lint_findings));
  }
  end_span(span);

  // ------------------------------------------------------ observability
  if (options.metrics != nullptr) {
    options.metrics->GetCounter("analysis.runs")->Increment();
    options.metrics->GetCounter("analysis.nodes")
        ->Increment(static_cast<int64_t>(project.nodes().size()));
    options.metrics->GetCounter("analysis.diagnostics")
        ->Increment(static_cast<int64_t>(diag.diagnostics().size()));
    options.metrics->GetCounter("analysis.errors")
        ->Increment(static_cast<int64_t>(diag.error_count()));
    options.metrics->GetCounter("analysis.warnings")
        ->Increment(static_cast<int64_t>(diag.warning_count()));
  }
  if (options.tracer != nullptr) {
    options.tracer->AddAttribute(analysis_span, "errors",
                                 std::to_string(diag.error_count()));
    options.tracer->AddAttribute(analysis_span, "warnings",
                                 std::to_string(diag.warning_count()));
    options.tracer->EndSpan(analysis_span);
  }
  return result;
}

}  // namespace bauplan::analysis
