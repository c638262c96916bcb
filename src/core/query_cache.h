#ifndef BAUPLAN_CORE_QUERY_CACHE_H_
#define BAUPLAN_CORE_QUERY_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>

#include "columnar/table.h"
#include "observability/metrics.h"
#include "sql/engine.h"

namespace bauplan::core {

/// LRU cache of query results keyed by (SQL text, catalog commit id).
/// The paper's section 5 lists "using logs ... to further optimize the
/// experience behind the scenes" as future work; result caching is the
/// lowest-hanging instance, and the versioned catalog makes it sound for
/// free: a table can only change by producing a new commit id, so a
/// (sql, commit) pair is immutable and needs no invalidation protocol.
///
/// Entries carry the whole result payload — table, execution stats,
/// plans and lint findings — so a hit is indistinguishable from a fresh
/// execution (minus the from_cache flag). Plans are only present when
/// the original execution captured them; a caller that needs plans
/// misses on a plan-less entry (and the re-execution upgrades it).
class QueryResultCache {
 public:
  struct Stats {
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t evictions = 0;
  };

  /// `capacity_bytes` bounds the total EstimatedBytes of cached tables;
  /// 0 disables caching entirely. Does not own `registry`; counters
  /// register as "query_cache.*" instruments, with a private fallback
  /// registry when null.
  explicit QueryResultCache(
      uint64_t capacity_bytes = 256ull << 20,
      observability::MetricsRegistry* registry = nullptr);

  /// Looks up a result; copies the payload (table, stats, and — when
  /// `need_plans` — plans and lints) into `out` on a hit. An entry
  /// without captured plans cannot serve `need_plans` and misses.
  /// `out->from_cache` / `out->trace` are left untouched.
  bool Lookup(const std::string& sql, const std::string& commit_id,
              bool need_plans, sql::QueryResult* out);

  /// Stores a result payload; `has_plans` marks whether `result` carries
  /// captured plans/lints. Re-inserting under an existing key is a no-op
  /// unless the newcomer has plans and the incumbent does not (upgrade).
  /// No-op when disabled or the table alone exceeds capacity.
  void Insert(const std::string& sql, const std::string& commit_id,
              const sql::QueryResult& result, bool has_plans);

  /// Snapshot by value; call again for fresh numbers.
  Stats stats() const;
  uint64_t used_bytes() const { return used_bytes_; }
  size_t entry_count() const { return entries_.size(); }

  void Clear();

 private:
  struct Entry {
    std::string key;
    columnar::Table table;
    sql::ExecStats exec_stats;
    std::string logical_plan;
    std::string physical_plan;
    std::vector<Diagnostic> lints;
    bool has_plans = false;
    uint64_t bytes = 0;
  };

  static std::string MakeKey(const std::string& sql,
                             const std::string& commit_id);
  static uint64_t EntryBytes(const Entry& entry);
  void EvictUntilFits(uint64_t incoming);

  uint64_t capacity_bytes_;
  uint64_t used_bytes_ = 0;
  std::list<Entry> lru_;  // front = most recent
  std::unordered_map<std::string, std::list<Entry>::iterator> entries_;
  std::unique_ptr<observability::MetricsRegistry> owned_registry_;
  observability::Counter* hits_;
  observability::Counter* misses_;
  observability::Counter* evictions_;
};

}  // namespace bauplan::core

#endif  // BAUPLAN_CORE_QUERY_CACHE_H_
