#include "core/lakehouse_source.h"

namespace bauplan::core {

Result<std::string> LakehouseSource::MetadataKey(
    const std::string& name) const {
  if (!tables_.has_value()) {
    BAUPLAN_ASSIGN_OR_RETURN(tables_, catalog_->GetTables(ref_));
  }
  return catalog::FindTableKey(*tables_, name, ref_);
}

Result<columnar::Schema> LakehouseSource::GetTableSchema(
    const std::string& table_name) const {
  auto overlay_it = overlay_.find(table_name);
  if (overlay_it != overlay_.end()) return overlay_it->second.schema();
  BAUPLAN_ASSIGN_OR_RETURN(std::string metadata_key, MetadataKey(table_name));
  BAUPLAN_ASSIGN_OR_RETURN(table::TableMetadata metadata,
                           ops_->LoadMetadata(metadata_key));
  return metadata.schema;
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
  BAUPLAN_ASSIGN_OR_RETURN(std::string metadata_key, MetadataKey(name));
  table::ScanOptions options;
  options.columns = columns;
  options.predicates = predicates;
  table::ScanPlan plan;
  BAUPLAN_ASSIGN_OR_RETURN(columnar::Table result,
                           ops_->ScanTable(metadata_key, options, &plan));
  last_plan_ = plan;
  return result;
}

}  // namespace bauplan::core
