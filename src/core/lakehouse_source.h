#ifndef BAUPLAN_CORE_LAKEHOUSE_SOURCE_H_
#define BAUPLAN_CORE_LAKEHOUSE_SOURCE_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "columnar/table.h"
#include "sql/engine.h"
#include "table/table_ops.h"

namespace bauplan::core {

/// Bridges the SQL engine to the lakehouse: table names resolve through
/// the versioned catalog at a pinned ref, and scans run through the
/// Iceberg-style planner, so the engine's pushed-down predicates become
/// partition pruning and zone-map skipping. A layered map of in-memory
/// tables (pipeline intermediates) shadows the catalog, which is how the
/// fused executor keeps artifacts off object storage.
///
/// The ref resolves to its table map once, on first use, so every schema
/// lookup and scan through one source reads the same snapshot. Each
/// table's metadata loads once per source too: metadata keys are
/// content-addressed and write-once, and a source serves one thread.
class LakehouseSource : public sql::SchemaResolver, public sql::TableSource {
 public:
  /// Does not own `catalog` or `ops`. `ref` is a branch, tag, or commit.
  LakehouseSource(const catalog::Catalog* catalog, const table::TableOps* ops,
                  std::string ref)
      : catalog_(catalog), ops_(ops), ref_(std::move(ref)) {}

  /// Reads `tables` (table name -> metadata key, as resolved from `ref`
  /// by the caller) instead of resolving `ref` again.
  LakehouseSource(const catalog::Catalog* catalog, const table::TableOps* ops,
                  std::string ref, std::map<std::string, std::string> tables)
      : catalog_(catalog),
        ops_(ops),
        ref_(std::move(ref)),
        tables_(std::move(tables)) {}

  /// Registers an in-memory table that shadows catalog contents.
  void AddOverlayTable(const std::string& name, columnar::Table table) {
    overlay_[name] = std::move(table);
  }

  /// Pruning stats of the latest catalog scan through this source.
  const table::ScanPlan& last_scan_plan() const { return last_plan_; }

  Result<columnar::Schema> GetTableSchema(
      const std::string& table_name) const override;

  Result<columnar::Table> ScanTable(
      const std::string& name, const std::vector<std::string>& columns,
      const std::vector<format::ColumnPredicate>& predicates) override;

 private:
  /// Metadata of catalog table `name` at the ref, loaded on first use.
  Result<const table::TableMetadata*> Metadata(const std::string& name) const;

  const catalog::Catalog* catalog_;
  const table::TableOps* ops_;
  std::string ref_;
  /// Resolved on first use; a failed resolution is retried next time.
  mutable std::optional<std::map<std::string, std::string>> tables_;
  /// Decoded metadata by metadata key; a failed load is retried.
  mutable std::map<std::string, table::TableMetadata> metadata_;
  std::map<std::string, columnar::Table> overlay_;
  table::ScanPlan last_plan_;
};

}  // namespace bauplan::core

#endif  // BAUPLAN_CORE_LAKEHOUSE_SOURCE_H_
