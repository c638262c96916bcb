#ifndef BAUPLAN_CATALOG_CATALOG_H_
#define BAUPLAN_CATALOG_CATALOG_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "catalog/commit.h"
#include "catalog/refspec.h"
#include "common/clock.h"
#include "common/result.h"
#include "storage/object_store.h"

namespace bauplan::catalog {

/// A set of table changes applied by one commit. Absent tables are
/// created, present ones repointed; deletes remove the name.
struct TableChanges {
  /// table name -> new metadata key.
  std::map<std::string, std::string> puts;
  std::vector<std::string> deletes;
};

/// Metadata key of `table_name` in a commit's table map; NotFound, naming
/// `ref`, when the table is absent.
Result<std::string> FindTableKey(
    const std::map<std::string, std::string>& tables,
    const std::string& table_name, const std::string& ref);

/// Decoded commits by id, shared by every copy of a Catalog (catalog.cc).
class CommitCache;

/// Summary of a merge.
struct MergeResult {
  std::string commit_id;
  bool fast_forward = false;
};

/// Git-for-data catalog (the Nessie stand-in): an append-only commit DAG in
/// object storage plus mutable branch/tag references. All reads are by
/// ref (branch name, tag name, or commit id), which is what makes
/// `bauplan query -b feat_1` and time travel work.
///
/// Commit concurrency is optimistic: a commit states the head it was
/// computed against and is built on it. If the branch has moved since,
/// the commit merges into the new head three-way, and only a table both
/// sides changed is a Conflict, like Nessie's per-key commit check.
///
/// Commits are content-addressed and never rewritten, so decoded commits
/// are cached by id without invalidation; refs are mutable and always
/// re-read. Copies of a Catalog share one cache, which is safe to use
/// from concurrent threads.
class Catalog {
 public:
  static constexpr const char* kMainBranch = "main";

  /// Byte budget of the commit cache; least recently used commits are
  /// evicted beyond it.
  static constexpr uint64_t kCommitCacheBytes = 4ull << 20;

  /// Opens (or initializes) the catalog stored under `prefix` in `store`.
  /// A fresh catalog gets a root commit and a "main" branch.
  static Result<Catalog> Open(storage::ObjectStore* store, Clock* clock,
                              std::string prefix = "catalog");

  // -- refs -----------------------------------------------------------

  /// Creates branch `name` at the commit `from_ref` resolves to.
  Status CreateBranch(const std::string& name, const std::string& from_ref);

  /// Deletes a branch; main cannot be deleted.
  Status DeleteBranch(const std::string& name);

  /// Creates an immutable tag at the commit `from_ref` resolves to.
  Status CreateTag(const std::string& name, const std::string& from_ref);

  /// All branch names, sorted.
  Result<std::vector<std::string>> ListBranches() const;

  /// The head commit id of branch `name`; NotFound when no branch has
  /// that name (a tag or a commit id is not a branch).
  Result<std::string> ResolveBranch(const std::string& name) const;

  /// Resolves a branch name, tag name, or literal commit id to a commit id.
  Result<std::string> ResolveRef(const std::string& ref) const;

  /// Resolves a parsed refspec. Without a timestamp this is ResolveRef;
  /// with one ("name@timestamp") it walks the ref's first-parent log to
  /// the newest commit at or before the timestamp (as-of time travel).
  Result<std::string> Resolve(const RefSpec& spec) const;

  // -- history --------------------------------------------------------

  /// NotFound when no commit has this id; other store failures come back
  /// as the store reported them.
  Result<Commit> GetCommit(const std::string& commit_id) const;

  /// Commits on the first-parent chain from `ref` back to the root,
  /// newest first, capped at `limit` (0 = unlimited).
  Result<std::vector<Commit>> Log(const std::string& ref,
                                  size_t limit = 0) const;

  // -- content --------------------------------------------------------

  /// The full table map at `ref`.
  Result<std::map<std::string, std::string>> GetTables(
      const std::string& ref) const;

  /// Metadata key of one table at `ref`; NotFound when absent.
  Result<std::string> GetTable(const std::string& ref,
                               const std::string& table_name) const;

  // -- writes ---------------------------------------------------------

  /// Applies `changes` on top of `expected_head` (`branch`'s head when
  /// empty) as a new commit, and moves `branch` to it if `branch` is still
  /// there; otherwise merges it in (Merge: Conflict, branch unmoved, when
  /// both changed a table). Returns the commit `branch` ends at.
  Result<std::string> CommitChanges(const std::string& branch,
                                    const std::string& message,
                                    const std::string& author,
                                    const TableChanges& changes,
                                    const std::string& expected_head = "");

  /// Merges `from_ref` into `to_branch`. Fast-forwards when possible;
  /// otherwise three-way merges against the common ancestor and fails
  /// with Conflict when both sides changed the same table differently.
  /// Reads O(distance to the merge base) commits, not O(history).
  Result<MergeResult> Merge(const std::string& from_ref,
                            const std::string& to_branch,
                            const std::string& author);

  /// Bytes the commit cache currently charges (at most
  /// kCommitCacheBytes).
  uint64_t commit_cache_bytes() const;

 private:
  Catalog(storage::ObjectStore* store, Clock* clock, std::string prefix);

  std::string CommitKey(const std::string& id) const;
  std::string RefKey(const std::string& kind, const std::string& name) const;

  Result<std::optional<std::string>> ReadRef(const std::string& kind,
                                             const std::string& name) const;
  Status WriteRef(const std::string& kind, const std::string& name,
                  const std::string& commit_id);

  Result<std::string> WriteCommit(Commit commit);

  /// The decoded commit, from the cache or the store.
  Result<std::shared_ptr<const Commit>> LoadCommit(
      const std::string& commit_id) const;

  /// Newest commit on both first-parent chains. Walks the two chains in
  /// lockstep and stops at the first commit the other walker has seen,
  /// so it reads O(distance to the base) commits.
  Result<std::string> MergeBase(const std::string& a,
                                const std::string& b) const;

  storage::ObjectStore* store_;
  Clock* clock_;
  std::string prefix_;
  std::shared_ptr<CommitCache> commits_;
};

}  // namespace bauplan::catalog

#endif  // BAUPLAN_CATALOG_CATALOG_H_
