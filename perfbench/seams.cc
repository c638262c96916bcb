#include "seams.h"

namespace perfbench {

using bauplan::Bytes;
using bauplan::Result;
using bauplan::Status;
using bauplan::storage::ObjectMeta;
using bauplan::storage::StoreOp;

std::string OwnerOfKey(const std::string& key) {
  auto starts = [&](const char* prefix) { return key.rfind(prefix, 0) == 0; };
  if (starts("catalog/")) return "catalog";
  if (starts("cache/")) return "cache";
  if (starts("audit/") || starts("runs/")) return "core";
  if (starts("lake/")) {
    return key.find("/data/") != std::string::npos ? "format" : "table";
  }
  return "storage";
}

void TracingStore::Record(StoreOp op, const char* verb,
                          const std::string& key, uint64_t bytes,
                          double wall_start) const {
  BenchSpan span;
  span.wall_start = wall_start;
  span.wall_end = WallMicros();
  span.sim_micros = latency_.MicrosFor(op, bytes);
  span.name = key;
  span.module = OwnerOfKey(key);
  span.verb = verb;
  span.bytes = static_cast<int64_t>(bytes);
  recorder_->Record(std::move(span));
}

Status TracingStore::Put(const std::string& key, Bytes data) {
  double start = WallMicros();
  uint64_t size = data.size();
  Status st = base_->Put(key, std::move(data));
  Record(StoreOp::kPut, "PUT", key, size, start);
  return st;
}

Result<Bytes> TracingStore::Get(const std::string& key) const {
  double start = WallMicros();
  Result<Bytes> result = base_->Get(key);
  Record(StoreOp::kGet, "GET", key, result.ok() ? result->size() : 0, start);
  return result;
}

Result<uint64_t> TracingStore::Head(const std::string& key) const {
  double start = WallMicros();
  Result<uint64_t> result = base_->Head(key);
  Record(StoreOp::kHead, "HEAD", key, 0, start);
  return result;
}

Status TracingStore::Delete(const std::string& key) {
  double start = WallMicros();
  Status st = base_->Delete(key);
  Record(StoreOp::kDelete, "DELETE", key, 0, start);
  return st;
}

Result<std::vector<ObjectMeta>> TracingStore::List(
    const std::string& prefix) const {
  double start = WallMicros();
  auto result = base_->List(prefix);
  Record(StoreOp::kList, "LIST", prefix, 0, start);
  return result;
}

Result<bauplan::columnar::Schema> TimedSource::GetTableSchema(
    const std::string& table_name) const {
  uint64_t span = recorder_->Begin(table_name, "table", 0);
  auto schema = inner_->GetTableSchema(table_name);
  recorder_->End(span, 0);
  return schema;
}

Result<bauplan::columnar::Table> TimedSource::ScanTable(
    const std::string& name, const std::vector<std::string>& columns,
    const std::vector<bauplan::format::ColumnPredicate>& predicates) {
  uint64_t span = recorder_->Begin(name, "format", 0);
  auto table = inner_->ScanTable(name, columns, predicates);
  recorder_->End(span, 0);
  if (table.ok()) {
    const auto& plan = inner_->last_scan_plan();
    files_planned_ += plan.files_total;
    files_pruned_ +=
        plan.files_pruned_by_partition + plan.files_pruned_by_stats;
    output_bytes_ += table->EstimatedBytes();
  }
  return table;
}

}  // namespace perfbench
