#ifndef BAUPLAN_CORE_LAKEHOUSE_SOURCE_H_
#define BAUPLAN_CORE_LAKEHOUSE_SOURCE_H_

#include <map>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "columnar/table.h"
#include "sql/engine.h"
#include "table/table_ops.h"

namespace bauplan::core {

/// Bridges the SQL engine to the lakehouse: table names resolve through
/// one commit's table map, and scans run through the Iceberg-style
/// planner, so the engine's pushed-down predicates become partition
/// pruning and zone-map skipping. A layered map of in-memory tables
/// (pipeline intermediates) shadows the catalog, which is how the fused
/// executor keeps artifacts off object storage; a name can also be
/// pinned to a committed table version (a fused run's cache hit), which
/// then scans from the lake with pushdown like any catalog table.
///
/// Every schema lookup and scan through one source reads the same
/// snapshot. Each table's metadata loads once per source too: metadata
/// keys are content-addressed and write-once, and a source serves one
/// thread.
class LakehouseSource : public sql::SchemaResolver, public sql::TableSource {
 public:
  /// Reads `tables` (table name -> metadata key), the table map of the
  /// commit `ref` names. Does not own `ops`.
  LakehouseSource(const table::TableOps* ops, std::string ref,
                  std::map<std::string, std::string> tables)
      : ops_(ops), ref_(std::move(ref)), tables_(std::move(tables)) {}

  /// Resolves `ref` (a branch, tag, or commit) to its table map now; a
  /// failed resolution fails every catalog lookup. Does not own `catalog`
  /// or `ops`.
  LakehouseSource(const catalog::Catalog* catalog, const table::TableOps* ops,
                  std::string ref)
      : ops_(ops), ref_(std::move(ref)), tables_(catalog->GetTables(ref_)) {}

  /// Registers an in-memory table that shadows catalog contents.
  void AddOverlayTable(const std::string& name, columnar::Table table) {
    overlay_[name] = std::move(table);
  }

  /// Resolves `name` to the table version at `metadata_key` instead of
  /// the ref's table map.
  void AddCommittedTable(const std::string& name, std::string metadata_key) {
    committed_[name] = std::move(metadata_key);
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

  const table::TableOps* ops_;
  std::string ref_;
  Result<std::map<std::string, std::string>> tables_;
  /// Decoded metadata by metadata key; a failed load is retried.
  mutable std::map<std::string, table::TableMetadata> metadata_;
  std::map<std::string, columnar::Table> overlay_;
  /// Table name -> metadata key, consulted before the ref's table map.
  std::map<std::string, std::string> committed_;
  table::ScanPlan last_plan_;
};

}  // namespace bauplan::core

#endif  // BAUPLAN_CORE_LAKEHOUSE_SOURCE_H_
