#ifndef PERFBENCH_SEAMS_H_
#define PERFBENCH_SEAMS_H_

#include <string>
#include <vector>

#include "core/lakehouse_source.h"
#include "spans.h"
#include "storage/latency_model.h"
#include "storage/object_store.h"

namespace perfbench {

/// The module that owns an object key, by the platform's key layout:
/// catalog/ -> catalog, lake/<t>/metadata -> table, lake/<t>/data ->
/// format, cache/ -> cache, audit/ and runs/ -> core, else storage.
std::string OwnerOfKey(const std::string& key);

/// ObjectStore decorator handed to Bauplan::Open as the base store: it
/// sits below the platform's metering layer and records every call as a
/// span with its bytes, wall time and modeled time (LatencyModel::
/// MicrosFor).
class TracingStore : public bauplan::storage::ObjectStore {
 public:
  /// Does not own `base` or `recorder`.
  TracingStore(bauplan::storage::ObjectStore* base,
               bauplan::storage::LatencyModel latency, SpanRecorder* recorder)
      : base_(base), latency_(latency), recorder_(recorder) {}

  bauplan::Status Put(const std::string& key, bauplan::Bytes data) override;
  bauplan::Result<bauplan::Bytes> Get(const std::string& key) const override;
  bauplan::Result<uint64_t> Head(const std::string& key) const override;
  bauplan::Status Delete(const std::string& key) override;
  bauplan::Result<std::vector<bauplan::storage::ObjectMeta>> List(
      const std::string& prefix) const override;

 private:
  void Record(bauplan::storage::StoreOp op, const char* verb,
              const std::string& key, uint64_t bytes,
              double wall_start) const;

  bauplan::storage::ObjectStore* base_;
  bauplan::storage::LatencyModel latency_;
  SpanRecorder* recorder_;
};

/// Timing decorator of core::LakehouseSource for query replays: every
/// schema lookup and scan becomes a span (module "table" and "format"),
/// so the store spans recorded inside nest under the scan that caused
/// them, and scan pruning and output bytes are tallied.
class TimedSource : public bauplan::sql::SchemaResolver,
                    public bauplan::sql::TableSource {
 public:
  /// Does not own `inner` or `recorder`.
  TimedSource(bauplan::core::LakehouseSource* inner, SpanRecorder* recorder)
      : inner_(inner), recorder_(recorder) {}

  bauplan::Result<bauplan::columnar::Schema> GetTableSchema(
      const std::string& table_name) const override;
  bauplan::Result<bauplan::columnar::Table> ScanTable(
      const std::string& name, const std::vector<std::string>& columns,
      const std::vector<bauplan::format::ColumnPredicate>& predicates)
      override;

  int64_t files_planned() const { return files_planned_; }
  int64_t files_pruned() const { return files_pruned_; }
  /// Estimated bytes of the column data the scans returned.
  int64_t output_bytes() const { return output_bytes_; }

 private:
  bauplan::core::LakehouseSource* inner_;
  SpanRecorder* recorder_;
  int64_t files_planned_ = 0;
  int64_t files_pruned_ = 0;
  int64_t output_bytes_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_SEAMS_H_
