#include "catalog/catalog.h"

#include <list>
#include <mutex>
#include <set>
#include <unordered_map>

#include "common/strings.h"
#include "common/thread_annotations.h"

namespace bauplan::catalog {

/// Decoded commits by id, least recently used first out once the charged
/// bytes pass Catalog::kCommitCacheBytes. Sound without invalidation:
/// an id is the hash of its commit's content, so an id never names
/// different bytes. Entries are shared immutably, so a hit hands out a
/// pointer rather than a copy of the table map.
class CommitCache {
 public:
  std::shared_ptr<const Commit> Find(const std::string& id) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(id);
    if (it == index_.end()) return nullptr;
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->commit;
  }

  /// `image_bytes` is the commit's encoded size.
  void Insert(std::shared_ptr<const Commit> commit, uint64_t image_bytes) {
    // The encoded image plus an allowance for the decoded map's nodes.
    const uint64_t charge = image_bytes + 256 + 96 * commit->tables.size();
    if (charge > Catalog::kCommitCacheBytes) return;
    std::lock_guard<std::mutex> lock(mu_);
    if (index_.count(commit->id) > 0) return;
    const std::string id = commit->id;
    lru_.push_front(Entry{std::move(commit), charge});
    index_[id] = lru_.begin();
    bytes_ += charge;
    while (bytes_ > Catalog::kCommitCacheBytes) {
      bytes_ -= lru_.back().bytes;
      index_.erase(lru_.back().commit->id);
      lru_.pop_back();
    }
  }

  uint64_t bytes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return bytes_;
  }

 private:
  struct Entry {
    std::shared_ptr<const Commit> commit;
    uint64_t bytes;
  };

  mutable std::mutex mu_;
  std::list<Entry> lru_ BAUPLAN_GUARDED_BY(mu_);
  std::unordered_map<std::string, std::list<Entry>::iterator> index_
      BAUPLAN_GUARDED_BY(mu_);
  uint64_t bytes_ BAUPLAN_GUARDED_BY(mu_) = 0;
};

Result<std::string> FindTableKey(
    const std::map<std::string, std::string>& tables,
    const std::string& table_name, const std::string& ref) {
  auto it = tables.find(table_name);
  if (it == tables.end()) {
    return Status::NotFound(StrCat("no table named '", table_name,
                                   "' at ref '", ref, "'"));
  }
  return it->second;
}

Catalog::Catalog(storage::ObjectStore* store, Clock* clock,
                 std::string prefix)
    : store_(store),
      clock_(clock),
      prefix_(std::move(prefix)),
      commits_(std::make_shared<CommitCache>()) {}

uint64_t Catalog::commit_cache_bytes() const { return commits_->bytes(); }

Result<Catalog> Catalog::Open(storage::ObjectStore* store, Clock* clock,
                              std::string prefix) {
  Catalog cat(store, clock, std::move(prefix));
  BAUPLAN_ASSIGN_OR_RETURN(auto main_head,
                           cat.ReadRef("branch", kMainBranch));
  if (!main_head.has_value()) {
    Commit root;
    root.message = "initialize catalog";
    root.author = "system";
    root.timestamp_micros = clock->NowMicros();
    BAUPLAN_ASSIGN_OR_RETURN(std::string root_id,
                             cat.WriteCommit(std::move(root)));
    BAUPLAN_RETURN_NOT_OK(cat.WriteRef("branch", kMainBranch, root_id));
  }
  return cat;
}

std::string Catalog::CommitKey(const std::string& id) const {
  return StrCat(prefix_, "/commits/", id);
}

std::string Catalog::RefKey(const std::string& kind,
                            const std::string& name) const {
  return StrCat(prefix_, "/refs/", kind, "/", name);
}

Result<std::optional<std::string>> Catalog::ReadRef(
    const std::string& kind, const std::string& name) const {
  auto data = store_->Get(RefKey(kind, name));
  if (!data.ok()) {
    if (data.status().IsNotFound()) return std::optional<std::string>();
    return data.status();
  }
  return std::optional<std::string>(
      std::string(data->begin(), data->end()));
}

Status Catalog::WriteRef(const std::string& kind, const std::string& name,
                         const std::string& commit_id) {
  return store_->Put(RefKey(kind, name),
                     Bytes(commit_id.begin(), commit_id.end()));
}

Result<std::string> Catalog::WriteCommit(Commit commit) {
  commit.id = commit.ComputeId();
  Bytes image = commit.Serialize();
  const uint64_t image_bytes = image.size();
  BAUPLAN_RETURN_NOT_OK(store_->Put(CommitKey(commit.id), std::move(image)));
  auto written = std::make_shared<const Commit>(std::move(commit));
  commits_->Insert(written, image_bytes);
  return written->id;
}

Result<std::shared_ptr<const Commit>> Catalog::LoadCommit(
    const std::string& commit_id) const {
  if (auto hit = commits_->Find(commit_id)) return hit;
  auto data = store_->Get(CommitKey(commit_id));
  if (!data.ok()) {
    if (data.status().IsNotFound()) {
      return Status::NotFound(StrCat("no commit with id '", commit_id, "'"));
    }
    return data.status();
  }
  BAUPLAN_ASSIGN_OR_RETURN(Commit commit, Commit::Deserialize(*data));
  if (commit.id != commit_id) {
    return Status::IOError(StrCat("commit object '", commit_id,
                                  "' holds commit '", commit.id, "'"));
  }
  auto decoded = std::make_shared<const Commit>(std::move(commit));
  commits_->Insert(decoded, data->size());
  return decoded;
}

Status Catalog::CreateBranch(const std::string& name,
                             const std::string& from_ref) {
  if (name.empty()) return Status::InvalidArgument("empty branch name");
  BAUPLAN_ASSIGN_OR_RETURN(auto existing, ReadRef("branch", name));
  if (existing.has_value()) {
    return Status::AlreadyExists(StrCat("branch '", name,
                                        "' already exists"));
  }
  BAUPLAN_ASSIGN_OR_RETURN(std::string commit_id, ResolveRef(from_ref));
  return WriteRef("branch", name, commit_id);
}

Status Catalog::DeleteBranch(const std::string& name) {
  if (name == kMainBranch) {
    return Status::FailedPrecondition("cannot delete the main branch");
  }
  Status st = store_->Delete(RefKey("branch", name));
  if (st.IsNotFound()) {
    return Status::NotFound(StrCat("no branch named '", name, "'"));
  }
  return st;
}

Status Catalog::CreateTag(const std::string& name,
                          const std::string& from_ref) {
  if (name.empty()) return Status::InvalidArgument("empty tag name");
  BAUPLAN_ASSIGN_OR_RETURN(auto existing, ReadRef("tag", name));
  if (existing.has_value()) {
    return Status::AlreadyExists(StrCat("tag '", name, "' already exists"));
  }
  BAUPLAN_ASSIGN_OR_RETURN(std::string commit_id, ResolveRef(from_ref));
  return WriteRef("tag", name, commit_id);
}

Result<std::vector<std::string>> Catalog::ListBranches() const {
  std::string prefix = StrCat(prefix_, "/refs/branch/");
  BAUPLAN_ASSIGN_OR_RETURN(auto objects, store_->List(prefix));
  std::vector<std::string> names;
  names.reserve(objects.size());
  for (const auto& obj : objects) {
    names.push_back(obj.key.substr(prefix.size()));
  }
  return names;
}

Result<std::string> Catalog::ResolveBranch(const std::string& name) const {
  BAUPLAN_ASSIGN_OR_RETURN(auto head, ReadRef("branch", name));
  if (!head.has_value()) {
    return Status::NotFound(StrCat("no branch named '", name, "'"));
  }
  return *head;
}

Result<std::string> Catalog::ResolveRef(const std::string& ref) const {
  BAUPLAN_ASSIGN_OR_RETURN(auto branch, ReadRef("branch", ref));
  if (branch.has_value()) return *branch;
  BAUPLAN_ASSIGN_OR_RETURN(auto tag, ReadRef("tag", ref));
  if (tag.has_value()) return *tag;
  // Literal commit id. Commits are never deleted, so a cached one exists.
  if (commits_->Find(ref) != nullptr || store_->Exists(CommitKey(ref))) {
    return ref;
  }
  return Status::NotFound(
      StrCat("'", ref, "' is not a branch, tag, or commit id"));
}

Result<std::string> Catalog::Resolve(const RefSpec& spec) const {
  // A spec that swallowed a malformed @timestamp reports the parse error
  // here, not a misleading unknown-ref failure on the raw string.
  BAUPLAN_RETURN_NOT_OK(spec.status());
  BAUPLAN_ASSIGN_OR_RETURN(std::string id, ResolveRef(spec.name()));
  if (!spec.has_timestamp()) return id;
  // As-of: newest commit on the first-parent chain at or before the
  // timestamp (the chain is newest-first, so the first match wins).
  while (!id.empty()) {
    BAUPLAN_ASSIGN_OR_RETURN(auto c, LoadCommit(id));
    if (c->timestamp_micros <= spec.timestamp_micros()) return id;
    id = c->parent_id;
  }
  return Status::NotFound(
      StrCat("'", spec.name(), "' has no commit at or before @",
             spec.timestamp_micros()));
}

Result<Commit> Catalog::GetCommit(const std::string& commit_id) const {
  BAUPLAN_ASSIGN_OR_RETURN(auto commit, LoadCommit(commit_id));
  return *commit;
}

Result<std::vector<Commit>> Catalog::Log(const std::string& ref,
                                         size_t limit) const {
  BAUPLAN_ASSIGN_OR_RETURN(std::string id, ResolveRef(ref));
  std::vector<Commit> out;
  while (!id.empty()) {
    BAUPLAN_ASSIGN_OR_RETURN(auto c, LoadCommit(id));
    id = c->parent_id;
    out.push_back(*c);
    if (limit != 0 && out.size() >= limit) break;
  }
  return out;
}

Result<std::map<std::string, std::string>> Catalog::GetTables(
    const std::string& ref) const {
  BAUPLAN_ASSIGN_OR_RETURN(std::string id, ResolveRef(ref));
  BAUPLAN_ASSIGN_OR_RETURN(auto c, LoadCommit(id));
  return c->tables;
}

Result<std::string> Catalog::GetTable(const std::string& ref,
                                      const std::string& table_name) const {
  BAUPLAN_ASSIGN_OR_RETURN(std::string id, ResolveRef(ref));
  BAUPLAN_ASSIGN_OR_RETURN(auto c, LoadCommit(id));
  return FindTableKey(c->tables, table_name, ref);
}

Result<std::string> Catalog::CommitChanges(const std::string& branch,
                                           const std::string& message,
                                           const std::string& author,
                                           const TableChanges& changes,
                                           const std::string& expected_head) {
  BAUPLAN_ASSIGN_OR_RETURN(std::string head, ResolveBranch(branch));
  const std::string& base = expected_head.empty() ? head : expected_head;
  BAUPLAN_ASSIGN_OR_RETURN(auto parent, LoadCommit(base));

  Commit next;
  next.parent_id = parent->id;
  next.message = message;
  next.author = author;
  next.timestamp_micros = clock_->NowMicros();
  next.tables = parent->tables;
  for (const auto& name : changes.deletes) {
    if (next.tables.erase(name) == 0) {
      return Status::NotFound(
          StrCat("cannot delete table '", name, "': not in catalog"));
    }
  }
  for (const auto& [name, key] : changes.puts) next.tables[name] = key;

  BAUPLAN_ASSIGN_OR_RETURN(std::string id, WriteCommit(std::move(next)));
  if (base != head) {
    BAUPLAN_ASSIGN_OR_RETURN(MergeResult merged, Merge(id, branch, author));
    return merged.commit_id;
  }
  BAUPLAN_RETURN_NOT_OK(WriteRef("branch", branch, id));
  return id;
}

Result<std::string> Catalog::MergeBase(const std::string& a,
                                       const std::string& b) const {
  // Once two first-parent chains share a commit they share everything
  // behind it, so the first commit one walker meets in the other's trail
  // is the newest common one, whichever walker meets it. Stepping both
  // chains in lockstep stops the walk after the longer distance to it.
  std::set<std::string> seen_a;
  std::set<std::string> seen_b;
  std::string at_a = a;
  std::string at_b = b;
  while (!at_a.empty() || !at_b.empty()) {
    if (!at_a.empty()) {
      if (seen_b.count(at_a) > 0) return at_a;
      seen_a.insert(at_a);
    }
    if (!at_b.empty()) {
      if (seen_a.count(at_b) > 0) return at_b;
      seen_b.insert(at_b);
    }
    if (!at_a.empty()) {
      BAUPLAN_ASSIGN_OR_RETURN(auto c, LoadCommit(at_a));
      at_a = c->parent_id;
    }
    if (!at_b.empty()) {
      BAUPLAN_ASSIGN_OR_RETURN(auto c, LoadCommit(at_b));
      at_b = c->parent_id;
    }
  }
  return Status::Internal("commits share no ancestor (disjoint histories)");
}

Result<MergeResult> Catalog::Merge(const std::string& from_ref,
                                   const std::string& to_branch,
                                   const std::string& author) {
  BAUPLAN_ASSIGN_OR_RETURN(std::string from_id, ResolveRef(from_ref));
  BAUPLAN_ASSIGN_OR_RETURN(std::string to_head, ResolveBranch(to_branch));

  BAUPLAN_ASSIGN_OR_RETURN(std::string base_id, MergeBase(from_id, to_head));
  // Already merged: the source is on the target's first-parent chain.
  if (base_id == from_id) return MergeResult{to_head, true};

  // Fast-forward: the target head is on the source's chain.
  if (base_id == to_head) {
    BAUPLAN_RETURN_NOT_OK(WriteRef("branch", to_branch, from_id));
    return MergeResult{from_id, true};
  }

  // Three-way merge against the merge base.
  BAUPLAN_ASSIGN_OR_RETURN(auto base_commit, LoadCommit(base_id));
  BAUPLAN_ASSIGN_OR_RETURN(auto ours_commit, LoadCommit(to_head));
  BAUPLAN_ASSIGN_OR_RETURN(auto theirs_commit, LoadCommit(from_id));
  const Commit& base = *base_commit;
  const Commit& ours = *ours_commit;
  const Commit& theirs = *theirs_commit;

  std::map<std::string, std::string> merged = ours.tables;
  std::set<std::string> all_names;
  for (const auto& [n, k] : base.tables) all_names.insert(n);
  for (const auto& [n, k] : ours.tables) all_names.insert(n);
  for (const auto& [n, k] : theirs.tables) all_names.insert(n);

  auto lookup = [](const std::map<std::string, std::string>& m,
                   const std::string& n) -> std::string {
    auto it = m.find(n);
    return it == m.end() ? std::string() : it->second;
  };
  for (const auto& name : all_names) {
    std::string in_base = lookup(base.tables, name);
    std::string in_ours = lookup(ours.tables, name);
    std::string in_theirs = lookup(theirs.tables, name);
    if (in_ours == in_theirs) continue;  // agree (incl. both deleted)
    bool ours_changed = in_ours != in_base;
    bool theirs_changed = in_theirs != in_base;
    if (ours_changed && theirs_changed) {
      return Status::Conflict(
          StrCat("merge conflict on table '", name, "': both '", to_branch,
                 "' and '", from_ref, "' changed it since ", base_id));
    }
    // Exactly one side changed: take that side.
    const std::string& winner = theirs_changed ? in_theirs : in_ours;
    if (winner.empty()) {
      merged.erase(name);
    } else {
      merged[name] = winner;
    }
  }

  Commit merge;
  merge.parent_id = ours.id;
  merge.merge_parent_id = theirs.id;
  merge.message = StrCat("merge ", from_ref, " into ", to_branch);
  merge.author = author;
  merge.timestamp_micros = clock_->NowMicros();
  merge.tables = std::move(merged);
  BAUPLAN_ASSIGN_OR_RETURN(std::string id, WriteCommit(std::move(merge)));
  BAUPLAN_RETURN_NOT_OK(WriteRef("branch", to_branch, id));
  return MergeResult{id, false};
}

}  // namespace bauplan::catalog
