#ifndef BAUPLAN_ANALYSIS_ANALYZER_H_
#define BAUPLAN_ANALYSIS_ANALYZER_H_

#include <map>
#include <set>
#include <string>

#include "analysis/lineage.h"
#include "analysis/range_analysis.h"
#include "columnar/type.h"
#include "common/diagnostic.h"
#include "observability/metrics.h"
#include "observability/trace.h"
#include "pipeline/project.h"
#include "sql/planner.h"

namespace bauplan::analysis {

/// Stable diagnostic codes emitted by the analyzer. The BP1xxx range is
/// structural (reference graph), BP2xxx is column-level schema
/// propagation, BP3xxx is expectation checking, BP4xxx is the plan
/// linter (declared in range_analysis.h — the interval-domain pass that
/// powers it). Codes are contractual: their meaning never changes once
/// shipped.
namespace codes {
/// A FROM/JOIN reference (or expectation target) names neither a
/// pipeline node nor a table in the catalog at the checked ref.
inline constexpr const char* kUnknownTable = "BP1001";
/// The extracted dependency graph has a cycle (including self-reads).
inline constexpr const char* kDependencyCycle = "BP1002";
/// A SQL node's output table name duplicates a table that already exists
/// in the catalog; every run overwrites it, and reads of that name
/// resolve to the node, shadowing the stored table.
inline constexpr const char* kDuplicateOutput = "BP1003";
/// A dead audit: the expectation's target is a static catalog table no
/// node in the project produces, so every run re-checks unchanged data.
inline constexpr const char* kDeadNode = "BP1004";
/// The node's SQL does not parse.
inline constexpr const char* kSqlParseError = "BP1005";
/// An expression references a column absent from the node's input scope.
inline constexpr const char* kUnknownColumn = "BP2001";
/// The node's expressions fail to bind or type-check (ambiguous
/// references, UNION shape mismatches, misplaced aggregates, unknown
/// functions).
inline constexpr const char* kTypeMismatch = "BP2002";
/// The node's inferred output schema differs from the same-named catalog
/// table its run replaces (added or dropped columns, changed types). The
/// run writes the new schema; readers outside the project are the other
/// side of that contract, so this warns rather than refuses.
inline constexpr const char* kSchemaNarrowing = "BP2003";
/// The expectation DSL does not parse.
inline constexpr const char* kBadExpectation = "BP3001";
/// The expectation references a column its input table does not have.
inline constexpr const char* kExpectationUnknownColumn = "BP3002";
/// The expectation needs a numeric column but the referenced column is
/// not numeric (mean/values over strings or bools).
inline constexpr const char* kExpectationTypeMismatch = "BP3003";
}  // namespace codes

/// Observability wiring for one analysis; all fields optional.
struct AnalyzerOptions {
  /// With a tracer, the analysis opens an "analysis" span (under
  /// `parent_span` when non-zero) with one child span per pass.
  observability::Tracer* tracer = nullptr;
  uint64_t parent_span = 0;
  /// With a registry, the analysis bumps "analysis.*" counters.
  observability::MetricsRegistry* metrics = nullptr;
};

/// Everything one analysis produced.
struct AnalysisResult {
  DiagnosticEngine diagnostics;
  /// Column-level output schema inferred for each SQL node that planned
  /// cleanly (the schema its materialized artifact will have).
  std::map<std::string, columnar::Schema> node_schemas;
  /// Cross-pipeline column lineage (see lineage.h), folded at the end of
  /// the lint pass from the plans the schema pass built. `check
  /// --lineage` renders it, and `Bauplan::Run` hands the runner its
  /// RequiredOutputColumns() when a verified run trims (`run --trim`).
  LineageGraph lineage;
  /// Id of the "analysis" span (0 without a tracer). Callers that own
  /// the tracer may ExtractTrace it into `trace`.
  uint64_t root_span = 0;
  /// Extracted analysis span tree; empty unless the caller extracts it.
  observability::Trace trace;

  /// True when no error-severity diagnostic was reported (warnings do
  /// not fail a check).
  bool ok() const { return !diagnostics.has_errors(); }
};

/// The code-intelligence static analyzer (paper section 4.5): parses a
/// whole pipeline project and rejects broken ones before any container
/// is scheduled. Three passes over the extracted reference graph:
///
///   1. structural  — parse each SQL node once, resolve every FROM/JOIN/
///      expectation reference against project nodes and the catalog, and
///      order the nodes (pipeline::SortTopologically); find unknown
///      references, cycles, shadowed outputs and dead audits.
///   2. schema      — fold each SQL node through the query planner in
///      topological order, feeding every node the inferred output
///      schemas of its upstream nodes; surfaces unknown columns, type
///      errors and schema-narrowing overwrites, column by column.
///   3. expectation — validate each expectation's referenced column and
///      required type against the inferred schema of its input.
///   4. lint        — interval-domain abstract interpretation over every
///      node's predicates (contradictions, tautologies, lossy
///      comparisons, redundant conjuncts; BP4001–BP4006) plus the
///      cross-pipeline lineage fold that finds dead columns (BP4007).
///
/// Purely static: nothing executes, no branch is created, no container
/// is acquired. All findings are Diagnostic records with stable codes.
class Analyzer {
 public:
  /// `known_tables` are the table names visible in the catalog at the
  /// checked ref. `catalog_schemas` resolves those tables' schemas; when
  /// null, the schema and expectation passes silently skip checks that
  /// need a source-table schema (structural checks still run).
  Analyzer(std::set<std::string> known_tables,
           const sql::SchemaResolver* catalog_schemas)
      : known_tables_(std::move(known_tables)),
        catalog_schemas_(catalog_schemas) {}

  /// Runs all passes; never fails — problems are diagnostics, not
  /// statuses.
  AnalysisResult Analyze(const pipeline::PipelineProject& project,
                         const AnalyzerOptions& options = {}) const;

 private:
  std::set<std::string> known_tables_;
  const sql::SchemaResolver* catalog_schemas_;
};

}  // namespace bauplan::analysis

#endif  // BAUPLAN_ANALYSIS_ANALYZER_H_
