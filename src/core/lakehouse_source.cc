#include "core/lakehouse_source.h"

namespace bauplan::core {

Result<const table::TableMetadata*> LakehouseSource::Metadata(
    const std::string& name) const {
  std::string key;
  if (auto it = committed_.find(name); it != committed_.end()) {
    key = it->second;
  } else {
    BAUPLAN_RETURN_NOT_OK(tables_.status());
    BAUPLAN_ASSIGN_OR_RETURN(key, catalog::FindTableKey(*tables_, name, ref_));
  }
  auto it = metadata_.find(key);
  if (it == metadata_.end()) {
    BAUPLAN_ASSIGN_OR_RETURN(table::TableMetadata metadata,
                             ops_->LoadMetadata(key));
    it = metadata_.emplace(std::move(key), std::move(metadata)).first;
  }
  return &it->second;
}

Result<columnar::Schema> LakehouseSource::GetTableSchema(
    const std::string& table_name) const {
  auto overlay_it = overlay_.find(table_name);
  if (overlay_it != overlay_.end()) return overlay_it->second.schema();
  BAUPLAN_ASSIGN_OR_RETURN(const table::TableMetadata* metadata,
                           Metadata(table_name));
  return metadata->schema;
}

Result<columnar::Table> LakehouseSource::ScanTable(
    const std::string& name, const std::vector<std::string>& columns,
    const std::vector<format::ColumnPredicate>& predicates) {
  auto overlay_it = overlay_.find(name);
  if (overlay_it != overlay_.end()) {
    // In-memory artifact: projection only; exact filters re-apply above.
    if (columns.empty()) return overlay_it->second;
    return overlay_it->second.SelectColumns(columns);
  }
  BAUPLAN_ASSIGN_OR_RETURN(const table::TableMetadata* metadata,
                           Metadata(name));
  table::ScanOptions options;
  options.columns = columns;
  options.predicates = predicates;
  BAUPLAN_ASSIGN_OR_RETURN(table::ScanPlan plan,
                           ops_->PlanScan(*metadata, options));
  BAUPLAN_ASSIGN_OR_RETURN(columnar::Table result,
                           ops_->ReadScan(*metadata, plan, options));
  last_plan_ = std::move(plan);
  return result;
}

}  // namespace bauplan::core
