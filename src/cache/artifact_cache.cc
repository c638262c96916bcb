#include "cache/artifact_cache.h"

#include <iterator>

#include "common/strings.h"

namespace bauplan::cache {

namespace {
/// Entry format version; other versions (older builds' entries, which
/// held a serialized table) decode as corrupt, so they read as misses.
constexpr uint8_t kFormatVersion = 2;
}  // namespace

Bytes CachedArtifact::Serialize() const {
  BinaryWriter w;
  w.PutU8(kFormatVersion);
  w.PutU8(static_cast<uint8_t>(kind));
  w.PutBool(expectation_passed);
  w.PutString(details);
  w.PutI64(output_rows);
  if (kind == pipeline::NodeKind::kSqlModel) {
    w.PutString(metadata_key);
    w.PutI64(output_bytes);
  }
  return w.TakeBuffer();
}

Result<CachedArtifact> CachedArtifact::Deserialize(const Bytes& bytes) {
  BinaryReader r(bytes);
  BAUPLAN_ASSIGN_OR_RETURN(uint8_t version, r.GetU8());
  if (version != kFormatVersion) {
    return Status::IOError("unknown cached-artifact format version");
  }
  CachedArtifact artifact;
  BAUPLAN_ASSIGN_OR_RETURN(uint8_t kind, r.GetU8());
  if (kind > static_cast<uint8_t>(pipeline::NodeKind::kExpectation)) {
    return Status::IOError("invalid node kind in cached artifact");
  }
  artifact.kind = static_cast<pipeline::NodeKind>(kind);
  BAUPLAN_ASSIGN_OR_RETURN(artifact.expectation_passed, r.GetBool());
  BAUPLAN_ASSIGN_OR_RETURN(artifact.details, r.GetString());
  BAUPLAN_ASSIGN_OR_RETURN(artifact.output_rows, r.GetI64());
  if (artifact.kind == pipeline::NodeKind::kSqlModel) {
    BAUPLAN_ASSIGN_OR_RETURN(artifact.metadata_key, r.GetString());
    if (artifact.metadata_key.empty()) {
      return Status::IOError("cached artifact names no table version");
    }
    BAUPLAN_ASSIGN_OR_RETURN(artifact.output_bytes, r.GetI64());
  }
  return artifact;
}

ArtifactCache::ArtifactCache(storage::ObjectStore* store,
                             uint64_t budget_bytes,
                             observability::MetricsRegistry* registry,
                             std::string prefix)
    : store_(store), budget_bytes_(budget_bytes),
      prefix_(std::move(prefix)) {
  if (registry == nullptr) {
    owned_registry_ = std::make_unique<observability::MetricsRegistry>();
    registry = owned_registry_.get();
  }
  hits_ = registry->GetCounter("cache.hits");
  misses_ = registry->GetCounter("cache.misses");
  inserts_ = registry->GetCounter("cache.inserts");
  evictions_ = registry->GetCounter("cache.evictions");
  bytes_ = registry->GetGauge("cache.bytes");
}

std::string ArtifactCache::ObjectKey(const std::string& key) const {
  return StrCat(prefix_, "/", key);
}

void ArtifactCache::LoadIndex() {
  if (!enabled()) return;
  auto objects = store_->List(StrCat(prefix_, "/"));
  if (!objects.ok()) return;  // degrade: start cold
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  entries_.clear();
  used_bytes_ = 0;
  for (const auto& object : *objects) {
    std::string key = object.key.substr(prefix_.size() + 1);
    if (key.empty() || entries_.count(key) > 0) continue;
    lru_.push_back(Entry{key, object.size});
    entries_[key] = std::prev(lru_.end());
    used_bytes_ += object.size;
  }
  // The budget may have shrunk since these were written.
  EvictUntilFits(0);
  bytes_->Set(static_cast<int64_t>(used_bytes_));
}

std::optional<CachedArtifact> ArtifactCache::Lookup(
    const std::string& node, const std::string& key) {
  if (!enabled()) return std::nullopt;
  const std::string entry_key = StrCat(node, "/", key);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(entry_key);
  if (it == entries_.end()) {
    misses_->Increment();
    return std::nullopt;
  }
  auto data = store_->Get(ObjectKey(entry_key));
  if (!data.ok()) {
    // The index promised an object the store no longer serves (fault,
    // out-of-band deletion): drop it so later probes skip the store.
    DropEntry(entry_key, /*count_eviction=*/false);
    misses_->Increment();
    return std::nullopt;
  }
  auto artifact = CachedArtifact::Deserialize(*data);
  if (!artifact.ok()) {
    DropEntry(entry_key, /*count_eviction=*/false);
    misses_->Increment();
    return std::nullopt;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  hits_->Increment();
  return std::move(*artifact);
}

void ArtifactCache::Insert(const std::string& node, const std::string& key,
                           const CachedArtifact& artifact) {
  if (!enabled() || key.empty()) return;
  const std::string entry_key = StrCat(node, "/", key);
  Bytes payload = artifact.Serialize();
  uint64_t incoming = payload.size();
  std::lock_guard<std::mutex> lock(mu_);
  if (entries_.count(entry_key) > 0) return;  // content-addressed
  if (incoming > budget_bytes_) return;
  EvictUntilFits(incoming);
  if (!store_->Put(ObjectKey(entry_key), std::move(payload)).ok()) {
    return;  // degrade: just not cached
  }
  lru_.push_front(Entry{entry_key, incoming});
  entries_[entry_key] = lru_.begin();
  used_bytes_ += incoming;
  inserts_->Increment();
  bytes_->Set(static_cast<int64_t>(used_bytes_));
}

void ArtifactCache::EvictUntilFits(uint64_t incoming) {
  while (!lru_.empty() && used_bytes_ + incoming > budget_bytes_) {
    DropEntry(lru_.back().key, /*count_eviction=*/true);
  }
}

void ArtifactCache::DropEntry(const std::string& key,
                              bool count_eviction) {
  auto it = entries_.find(key);
  if (it == entries_.end()) return;
  // Delete failures leave an orphan object behind; the index forgets it
  // either way, and LoadIndex would re-adopt it in a later process.
  (void)store_->Delete(ObjectKey(key));
  ForgetEntry(it->second);
  if (count_eviction) evictions_->Increment();
}

void ArtifactCache::ForgetEntry(std::list<Entry>::iterator it) {
  used_bytes_ -= it->bytes;
  entries_.erase(it->key);
  lru_.erase(it);
  bytes_->Set(static_cast<int64_t>(used_bytes_));
}

Result<size_t> ArtifactCache::DropNode(const std::string& node) {
  const std::string node_prefix = StrCat(node, "/");
  std::lock_guard<std::mutex> lock(mu_);
  BAUPLAN_ASSIGN_OR_RETURN(auto objects,
                           store_->List(ObjectKey(node_prefix)));
  for (const auto& object : objects) {
    BAUPLAN_RETURN_NOT_OK(store_->Delete(object.key));
  }
  for (auto it = lru_.begin(); it != lru_.end();) {
    auto next = std::next(it);
    if (StartsWith(it->key, node_prefix)) ForgetEntry(it);
    it = next;
  }
  return objects.size();
}

Result<size_t> ArtifactCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  // Clear everything listed in the store, not just this process's index:
  // `bauplan cache clear` should empty a lake another session filled.
  BAUPLAN_ASSIGN_OR_RETURN(auto objects, store_->List(StrCat(prefix_, "/")));
  size_t dropped = 0;
  for (const auto& object : objects) {
    BAUPLAN_RETURN_NOT_OK(store_->Delete(object.key));
    ++dropped;
  }
  lru_.clear();
  entries_.clear();
  used_bytes_ = 0;
  bytes_->Set(0);
  return dropped;
}

ArtifactCache::Stats ArtifactCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats snapshot;
  snapshot.hits = hits_->Value();
  snapshot.misses = misses_->Value();
  snapshot.inserts = inserts_->Value();
  snapshot.evictions = evictions_->Value();
  snapshot.bytes = used_bytes_;
  snapshot.entries = entries_.size();
  return snapshot;
}

uint64_t ArtifactCache::used_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return used_bytes_;
}

size_t ArtifactCache::entry_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

}  // namespace bauplan::cache
