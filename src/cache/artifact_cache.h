#ifndef BAUPLAN_CACHE_ARTIFACT_CACHE_H_
#define BAUPLAN_CACHE_ARTIFACT_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "common/bytes.h"
#include "common/thread_annotations.h"
#include "observability/metrics.h"
#include "pipeline/project.h"
#include "storage/object_store.h"

namespace bauplan::cache {

/// What one cached pipeline node produced: a reference to the post-audit
/// table version a run committed (SQL models) or a recorded audit outcome
/// (expectations). An entry holds no table data, so a hit moves no data
/// byte: the run commits `metadata_key` as it is.
struct CachedArtifact {
  pipeline::NodeKind kind = pipeline::NodeKind::kSqlModel;
  /// SQL models only: the metadata key of the table version the run that
  /// computed the node committed, and a serialized-size estimate of it
  /// (for sizing the functions that read it).
  std::string metadata_key;
  int64_t output_bytes = 0;
  /// Expectations only.
  bool expectation_passed = true;
  std::string details;
  int64_t output_rows = 0;

  Bytes Serialize() const;
  static Result<CachedArtifact> Deserialize(const Bytes& bytes);
};

/// Content-addressed differential artifact cache: memoizes per-node
/// pipeline outcomes under their fingerprint keys (cache/fingerprint.h)
/// so a re-run can skip every unchanged node. Entries live in an
/// ObjectStore under "<prefix>/<node>/<key>" — hand it the platform's
/// metered lake store and the cache persists across processes, pays the
/// modeled object-storage latency, and composes with MeteredObjectStore,
/// FaultInjectionStore and the cost model like any other I/O.
///
/// Degradation contract: the cache can make a run faster, never fail it.
/// Every store error — probe get, insert put, eviction delete, index
/// list — degrades to a miss (or a skipped insert) and the run proceeds
/// as if the cache were cold. A corrupt entry is dropped from the index
/// on first touch.
///
/// Capacity: `budget_bytes` bounds the bytes the entries occupy under
/// the prefix (a SQL entry is a table reference, under 200 bytes); 0
/// disables the cache entirely. Inserts evict least-recently-used
/// entries (deleting their objects) until the newcomer fits; an entry
/// larger than the whole budget is not stored.
///
/// Counters register as cache.{hits,misses,inserts,evictions} plus the
/// cache.bytes gauge; `skipped_invocations` is counted by the runner.
///
/// Thread safety: all operations take an internal mutex.
class ArtifactCache {
 public:
  struct Stats {
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t inserts = 0;
    int64_t evictions = 0;
    uint64_t bytes = 0;
    size_t entries = 0;
  };

  /// Does not own `store` or `registry` (private registry when null).
  ArtifactCache(storage::ObjectStore* store, uint64_t budget_bytes,
                observability::MetricsRegistry* registry = nullptr,
                std::string prefix = "cache");

  bool enabled() const { return budget_bytes_ > 0; }
  uint64_t budget_bytes() const { return budget_bytes_; }

  /// Rebuilds the in-memory index from the store so a fresh process sees
  /// entries persisted by earlier ones. List errors degrade to an empty
  /// index; entries beyond the budget are evicted immediately (the
  /// budget may have shrunk since they were written).
  void LoadIndex();

  /// Returns what node `node` cached under `key`, or nullopt on a miss.
  /// Any store or decode error is a miss.
  std::optional<CachedArtifact> Lookup(const std::string& node,
                                       const std::string& key);

  /// Stores node `node`'s artifact under `key`. Never fails: store
  /// errors, an over-budget entry, or a disabled cache all just skip the
  /// insert.
  void Insert(const std::string& node, const std::string& key,
              const CachedArtifact& artifact);

  /// Deletes every entry of node `node` that the store lists (one LIST
  /// and its DELETEs), whether or not this process indexed it; returns
  /// how many were dropped. Expiring a table drops its node's entries so
  /// none names a version whose files the expiry deleted.
  Result<size_t> DropNode(const std::string& node);

  /// Deletes every cached entry (objects and index); returns how many
  /// were dropped. Clear and DropNode are the only surfaces that report
  /// a store error.
  Result<size_t> Clear();

  Stats stats() const;
  uint64_t used_bytes() const;
  size_t entry_count() const;

 private:
  /// `key` is the object key below the prefix: "<node>/<fingerprint>".
  struct Entry {
    std::string key;
    uint64_t bytes = 0;
  };

  std::string ObjectKey(const std::string& key) const;
  /// Forgets the index entry at `it` without touching the store.
  void ForgetEntry(std::list<Entry>::iterator it) BAUPLAN_REQUIRES(mu_);
  void EvictUntilFits(uint64_t incoming) BAUPLAN_REQUIRES(mu_);
  void DropEntry(const std::string& key, bool count_eviction)
      BAUPLAN_REQUIRES(mu_);

  storage::ObjectStore* store_;
  uint64_t budget_bytes_;
  std::string prefix_;
  mutable std::mutex mu_;
  uint64_t used_bytes_ BAUPLAN_GUARDED_BY(mu_) = 0;
  std::list<Entry> lru_ BAUPLAN_GUARDED_BY(mu_);  // front = most recent
  std::unordered_map<std::string, std::list<Entry>::iterator> entries_
      BAUPLAN_GUARDED_BY(mu_);
  std::unique_ptr<observability::MetricsRegistry> owned_registry_;
  observability::Counter* hits_;
  observability::Counter* misses_;
  observability::Counter* inserts_;
  observability::Counter* evictions_;
  observability::Gauge* bytes_;
};

}  // namespace bauplan::cache

#endif  // BAUPLAN_CACHE_ARTIFACT_CACHE_H_
