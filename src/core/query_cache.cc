#include "core/query_cache.h"

#include "common/hash.h"

namespace bauplan::core {

QueryResultCache::QueryResultCache(
    uint64_t capacity_bytes, observability::MetricsRegistry* registry)
    : capacity_bytes_(capacity_bytes) {
  if (registry == nullptr) {
    owned_registry_ = std::make_unique<observability::MetricsRegistry>();
    registry = owned_registry_.get();
  }
  hits_ = registry->GetCounter("query_cache.hits");
  misses_ = registry->GetCounter("query_cache.misses");
  evictions_ = registry->GetCounter("query_cache.evictions");
}

QueryResultCache::Stats QueryResultCache::stats() const {
  Stats snapshot;
  snapshot.hits = hits_->Value();
  snapshot.misses = misses_->Value();
  snapshot.evictions = evictions_->Value();
  return snapshot;
}

std::string QueryResultCache::MakeKey(const std::string& sql,
                                      const std::string& commit_id) {
  return FingerprintHex(sql) + ":" + commit_id;
}

uint64_t QueryResultCache::EntryBytes(const Entry& entry) {
  return static_cast<uint64_t>(entry.table.EstimatedBytes()) +
         entry.logical_plan.size() + entry.physical_plan.size();
}

bool QueryResultCache::Lookup(const std::string& sql,
                              const std::string& commit_id,
                              bool need_plans, sql::QueryResult* out) {
  if (capacity_bytes_ == 0) return false;
  auto it = entries_.find(MakeKey(sql, commit_id));
  if (it == entries_.end() || (need_plans && !it->second->has_plans)) {
    // A plan-less entry cannot serve an EXPLAIN-shaped request; miss so
    // the re-execution captures plans (and upgrades the entry).
    misses_->Increment();
    return false;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  const Entry& entry = *it->second;
  out->table = entry.table;
  out->stats = entry.exec_stats;
  // Mirror the uncached path exactly: plans and lints only materialize
  // when the caller asked for them, even if the entry carries them.
  if (need_plans) {
    out->logical_plan = entry.logical_plan;
    out->physical_plan = entry.physical_plan;
    out->lints = entry.lints;
  } else {
    out->logical_plan.clear();
    out->physical_plan.clear();
    out->lints.clear();
  }
  hits_->Increment();
  return true;
}

void QueryResultCache::Insert(const std::string& sql,
                              const std::string& commit_id,
                              const sql::QueryResult& result,
                              bool has_plans) {
  if (capacity_bytes_ == 0) return;
  std::string key = MakeKey(sql, commit_id);
  auto existing = entries_.find(key);
  if (existing != entries_.end()) {
    // Immutable key: nothing to refresh — unless this insert can upgrade
    // a plan-less entry with captured plans.
    if (!has_plans || existing->second->has_plans) return;
    used_bytes_ -= existing->second->bytes;
    lru_.erase(existing->second);
    entries_.erase(existing);
  }
  Entry entry;
  entry.key = key;
  entry.table = result.table;
  entry.exec_stats = result.stats;
  entry.has_plans = has_plans;
  if (has_plans) {
    entry.logical_plan = result.logical_plan;
    entry.physical_plan = result.physical_plan;
    entry.lints = result.lints;
  }
  entry.bytes = EntryBytes(entry);
  if (entry.bytes > capacity_bytes_) return;
  EvictUntilFits(entry.bytes);
  used_bytes_ += entry.bytes;
  lru_.push_front(std::move(entry));
  entries_[key] = lru_.begin();
}

void QueryResultCache::EvictUntilFits(uint64_t incoming) {
  while (!lru_.empty() && used_bytes_ + incoming > capacity_bytes_) {
    const Entry& victim = lru_.back();
    used_bytes_ -= victim.bytes;
    entries_.erase(victim.key);
    lru_.pop_back();
    evictions_->Increment();
  }
}

void QueryResultCache::Clear() {
  lru_.clear();
  entries_.clear();
  used_bytes_ = 0;
}

}  // namespace bauplan::core
