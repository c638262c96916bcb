#ifndef BAUPLAN_SQL_ENGINE_H_
#define BAUPLAN_SQL_ENGINE_H_

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "columnar/table.h"
#include "common/diagnostic.h"
#include "common/result.h"
#include "observability/trace.h"
#include "sql/executor.h"
#include "sql/optimizer.h"
#include "sql/planner.h"

namespace bauplan::sql {

/// Engine knobs.
struct QueryOptions {
  OptimizerOptions optimizer;
  /// When true the plan text (pre- and post-optimization) is captured in
  /// the result, like EXPLAIN ANALYZE.
  bool capture_plans = false;
  /// When set, the engine opens plan/execute child spans under
  /// `parent_span` (the caller's query span). Not owned.
  observability::Tracer* tracer = nullptr;
  uint64_t parent_span = 0;
  /// Execution knobs (engine choice, threads, morsel size, metrics sink).
  /// The tracer/parent_span fields inside are overwritten by the engine so
  /// operator spans nest under the execute span.
  ExecOptions exec;
};

/// Everything a query run produces.
struct QueryResult {
  columnar::Table table;
  ExecStats stats;
  std::string logical_plan;
  std::string physical_plan;
  /// Lint findings (BP4xxx) against the statement and pre-optimization
  /// logical plan; captured only when `capture_plans` is set, so EXPLAIN
  /// surfaces what the optimizer is about to exploit (contradictions it
  /// prunes, tautologies it drops) without taxing the hot path.
  std::vector<Diagnostic> lints;
  /// True when a platform-level result cache served this (the engine
  /// itself never sets it).
  bool from_cache = false;
  /// query -> plan -> execute span tree (the platform facade extracts it
  /// when it owns a tracer; empty otherwise).
  observability::Trace trace;
};

/// The embedded analytical engine (DuckDB stand-in): parse -> bind/plan ->
/// optimize -> execute, entirely in-process over columnar tables.
Result<QueryResult> RunQuery(std::string_view sql,
                             const SchemaResolver& resolver,
                             TableSource* source,
                             const QueryOptions& options = {});

/// In-memory table provider: resolves schemas and scans from a map of
/// materialized tables. Projection is honored; predicate hints are
/// ignored (exact filters re-apply them), which is the degenerate case
/// the TableSource contract allows.
class MemoryTableProvider : public SchemaResolver, public TableSource {
 public:
  MemoryTableProvider() = default;

  void AddTable(const std::string& name, columnar::Table table) {
    tables_[name] = std::move(table);
  }

  Result<columnar::Schema> GetTableSchema(
      const std::string& table_name) const override;

  Result<columnar::Table> ScanTable(
      const std::string& name, const std::vector<std::string>& columns,
      const std::vector<format::ColumnPredicate>& predicates) override;

 private:
  std::map<std::string, columnar::Table> tables_;
};

}  // namespace bauplan::sql

#endif  // BAUPLAN_SQL_ENGINE_H_
