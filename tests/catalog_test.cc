#include <atomic>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "common/clock.h"
#include "common/rng.h"
#include "common/strings.h"
#include "storage/metered_store.h"
#include "storage/object_store.h"

namespace bauplan::catalog {
namespace {

class CatalogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto opened = Catalog::Open(&store_, &clock_);
    ASSERT_TRUE(opened.ok());
    catalog_ = std::make_unique<Catalog>(*opened);
  }

  Result<std::string> Commit(const std::string& branch,
                             const std::string& table,
                             const std::string& key,
                             const std::string& expected_head = "") {
    TableChanges changes;
    changes.puts[table] = key;
    return catalog_->CommitChanges(branch, "set " + table, "tester",
                                   changes, expected_head);
  }

  storage::MemoryObjectStore store_;
  SimClock clock_{1000};
  std::unique_ptr<Catalog> catalog_;
};

TEST_F(CatalogTest, FreshCatalogHasMainWithRootCommit) {
  EXPECT_TRUE(catalog_->ResolveBranch("main").ok());
  auto log = catalog_->Log("main");
  ASSERT_TRUE(log.ok());
  ASSERT_EQ(log->size(), 1u);
  EXPECT_EQ((*log)[0].parent_id, "");
  auto tables = catalog_->GetTables("main");
  ASSERT_TRUE(tables.ok());
  EXPECT_TRUE(tables->empty());
}

TEST_F(CatalogTest, ReopenSeesExistingState) {
  ASSERT_TRUE(Commit("main", "taxi", "meta/v1").ok());
  auto reopened = Catalog::Open(&store_, &clock_);
  ASSERT_TRUE(reopened.ok());
  auto key = reopened->GetTable("main", "taxi");
  ASSERT_TRUE(key.ok());
  EXPECT_EQ(*key, "meta/v1");
}

TEST_F(CatalogTest, CommitAdvancesBranchAndKeepsHistory) {
  auto c1 = Commit("main", "taxi", "meta/v1");
  ASSERT_TRUE(c1.ok());
  auto c2 = Commit("main", "taxi", "meta/v2");
  ASSERT_TRUE(c2.ok());
  EXPECT_NE(*c1, *c2);

  EXPECT_EQ(*catalog_->GetTable("main", "taxi"), "meta/v2");
  // Old commit still readable by id (time travel).
  EXPECT_EQ(*catalog_->GetTable(*c1, "taxi"), "meta/v1");

  auto log = catalog_->Log("main");
  ASSERT_TRUE(log.ok());
  ASSERT_EQ(log->size(), 3u);
  EXPECT_EQ((*log)[0].id, *c2);
  EXPECT_EQ((*log)[1].id, *c1);
}

TEST_F(CatalogTest, CommitDeletesTable) {
  ASSERT_TRUE(Commit("main", "taxi", "meta/v1").ok());
  TableChanges changes;
  changes.deletes.push_back("taxi");
  ASSERT_TRUE(
      catalog_->CommitChanges("main", "drop taxi", "tester", changes).ok());
  EXPECT_TRUE(catalog_->GetTable("main", "taxi").status().IsNotFound());
  // Deleting a missing table fails.
  EXPECT_FALSE(
      catalog_->CommitChanges("main", "drop again", "tester", changes).ok());
}

// A commit states the head it read. If the branch moved since, the
// commit merges into the new head, and only a table both sides changed
// is a Conflict.
TEST_F(CatalogTest, OptimisticConcurrencyConflict) {
  auto head = catalog_->ResolveBranch("main");
  ASSERT_TRUE(head.ok());
  auto moved = Commit("main", "a", "k1");  // branch moves
  ASSERT_TRUE(moved.ok());
  auto stale = Commit("main", "b", "k2", *head);
  ASSERT_TRUE(stale.ok()) << stale.status().ToString();
  EXPECT_EQ(*catalog_->ResolveBranch("main"), *stale);
  EXPECT_EQ(*catalog_->GetTable("main", "a"), "k1");
  EXPECT_EQ(*catalog_->GetTable("main", "b"), "k2");
  auto merge = catalog_->GetCommit(*stale);
  ASSERT_TRUE(merge.ok());
  EXPECT_EQ(merge->parent_id, *moved);
  EXPECT_FALSE(merge->merge_parent_id.empty());
  // The new commit was built on the head it stated.
  EXPECT_EQ(catalog_->GetCommit(merge->merge_parent_id)->parent_id, *head);

  // Table a changed on main since `head`, too.
  auto conflict = Commit("main", "a", "k3", *head);
  ASSERT_FALSE(conflict.ok());
  EXPECT_TRUE(conflict.status().IsConflict()) << conflict.status().ToString();
  EXPECT_EQ(*catalog_->ResolveBranch("main"), *stale);
  EXPECT_EQ(*catalog_->GetTable("main", "a"), "k1");
}

TEST_F(CatalogTest, BranchesAreIsolated) {
  ASSERT_TRUE(Commit("main", "taxi", "meta/v1").ok());
  ASSERT_TRUE(catalog_->CreateBranch("feat_1", "main").ok());
  ASSERT_TRUE(Commit("feat_1", "taxi", "meta/v2").ok());
  EXPECT_EQ(*catalog_->GetTable("main", "taxi"), "meta/v1");
  EXPECT_EQ(*catalog_->GetTable("feat_1", "taxi"), "meta/v2");
}

TEST_F(CatalogTest, BranchRules) {
  EXPECT_FALSE(catalog_->CreateBranch("", "main").ok());
  ASSERT_TRUE(catalog_->CreateBranch("dev", "main").ok());
  EXPECT_TRUE(catalog_->CreateBranch("dev", "main").IsAlreadyExists());
  EXPECT_TRUE(catalog_->CreateBranch("x", "no_such_ref").IsNotFound());
  EXPECT_TRUE(catalog_->DeleteBranch("main").IsFailedPrecondition());
  EXPECT_TRUE(catalog_->DeleteBranch("dev").ok());
  EXPECT_TRUE(catalog_->DeleteBranch("dev").IsNotFound());

  auto branches = catalog_->ListBranches();
  ASSERT_TRUE(branches.ok());
  ASSERT_EQ(branches->size(), 1u);
  EXPECT_EQ((*branches)[0], "main");
}

TEST_F(CatalogTest, TagsResolveButAreImmutableRefs) {
  auto c1 = Commit("main", "taxi", "meta/v1");
  ASSERT_TRUE(c1.ok());
  ASSERT_TRUE(catalog_->CreateTag("release-1", "main").ok());
  ASSERT_TRUE(Commit("main", "taxi", "meta/v2").ok());
  // Tag still points at v1.
  EXPECT_EQ(*catalog_->GetTable("release-1", "taxi"), "meta/v1");
  EXPECT_TRUE(catalog_->CreateTag("release-1", "main").IsAlreadyExists());
}

TEST_F(CatalogTest, ResolveRefKinds) {
  auto c1 = Commit("main", "t", "k");
  ASSERT_TRUE(c1.ok());
  EXPECT_EQ(*catalog_->ResolveRef("main"), *c1);
  EXPECT_EQ(*catalog_->ResolveRef(*c1), *c1);
  EXPECT_TRUE(catalog_->ResolveRef("bogus").status().IsNotFound());
  // Only a branch name resolves as a branch head.
  ASSERT_TRUE(catalog_->CreateTag("v1", "main").ok());
  EXPECT_EQ(*catalog_->ResolveBranch("main"), *c1);
  EXPECT_TRUE(catalog_->ResolveBranch("v1").status().IsNotFound());
  EXPECT_TRUE(catalog_->ResolveBranch(*c1).status().IsNotFound());
}

TEST_F(CatalogTest, FastForwardMerge) {
  ASSERT_TRUE(catalog_->CreateBranch("feat", "main").ok());
  auto c = Commit("feat", "taxi", "meta/v1");
  ASSERT_TRUE(c.ok());
  auto merged = catalog_->Merge("feat", "main", "tester");
  ASSERT_TRUE(merged.ok());
  EXPECT_TRUE(merged->fast_forward);
  EXPECT_EQ(merged->commit_id, *c);
  EXPECT_EQ(*catalog_->GetTable("main", "taxi"), "meta/v1");
}

TEST_F(CatalogTest, MergeAlreadyMergedIsNoop) {
  ASSERT_TRUE(catalog_->CreateBranch("feat", "main").ok());
  auto head = catalog_->ResolveRef("main");
  auto merged = catalog_->Merge("feat", "main", "tester");
  ASSERT_TRUE(merged.ok());
  EXPECT_TRUE(merged->fast_forward);
  EXPECT_EQ(merged->commit_id, *head);
}

TEST_F(CatalogTest, ThreeWayMergeDisjointChanges) {
  ASSERT_TRUE(Commit("main", "base_table", "base/v1").ok());
  ASSERT_TRUE(catalog_->CreateBranch("feat", "main").ok());
  ASSERT_TRUE(Commit("feat", "feat_table", "feat/v1").ok());
  ASSERT_TRUE(Commit("main", "main_table", "main/v1").ok());

  auto merged = catalog_->Merge("feat", "main", "tester");
  ASSERT_TRUE(merged.ok());
  EXPECT_FALSE(merged->fast_forward);
  EXPECT_EQ(*catalog_->GetTable("main", "base_table"), "base/v1");
  EXPECT_EQ(*catalog_->GetTable("main", "feat_table"), "feat/v1");
  EXPECT_EQ(*catalog_->GetTable("main", "main_table"), "main/v1");
  // Merge commit records both parents.
  auto log = catalog_->Log("main", 1);
  ASSERT_TRUE(log.ok());
  EXPECT_FALSE((*log)[0].merge_parent_id.empty());
}

TEST_F(CatalogTest, ThreeWayMergeConflict) {
  ASSERT_TRUE(Commit("main", "taxi", "base").ok());
  ASSERT_TRUE(catalog_->CreateBranch("feat", "main").ok());
  ASSERT_TRUE(Commit("feat", "taxi", "theirs").ok());
  ASSERT_TRUE(Commit("main", "taxi", "ours").ok());
  auto merged = catalog_->Merge("feat", "main", "tester");
  ASSERT_FALSE(merged.ok());
  EXPECT_TRUE(merged.status().IsConflict());
  // Target branch unchanged after a failed merge.
  EXPECT_EQ(*catalog_->GetTable("main", "taxi"), "ours");
}

TEST_F(CatalogTest, ThreeWayMergeDeletionPropagates) {
  ASSERT_TRUE(Commit("main", "taxi", "base").ok());
  ASSERT_TRUE(catalog_->CreateBranch("feat", "main").ok());
  TableChanges del;
  del.deletes.push_back("taxi");
  ASSERT_TRUE(
      catalog_->CommitChanges("feat", "drop", "tester", del).ok());
  ASSERT_TRUE(Commit("main", "other", "o/v1").ok());
  auto merged = catalog_->Merge("feat", "main", "tester");
  ASSERT_TRUE(merged.ok());
  EXPECT_TRUE(catalog_->GetTable("main", "taxi").status().IsNotFound());
  EXPECT_EQ(*catalog_->GetTable("main", "other"), "o/v1");
}

TEST_F(CatalogTest, CommitTimestampsComeFromClock) {
  clock_.AdvanceMicros(5000);
  auto c = Commit("main", "t", "k");
  ASSERT_TRUE(c.ok());
  auto commit = catalog_->GetCommit(*c);
  ASSERT_TRUE(commit.ok());
  EXPECT_EQ(commit->timestamp_micros, clock_.NowMicros());
}

TEST_F(CatalogTest, LogLimit) {
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(Commit("main", "t", "k" + std::to_string(i)).ok());
  }
  auto log = catalog_->Log("main", 3);
  ASSERT_TRUE(log.ok());
  EXPECT_EQ(log->size(), 3u);
}


// ---------------------------------------------------------------- RefSpec

TEST(RefSpecTest, ParsePlainNameAndDefaults) {
  EXPECT_EQ(RefSpec().name(), "main");
  EXPECT_FALSE(RefSpec().has_timestamp());

  auto spec = RefSpec::Parse("feat_1");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->name(), "feat_1");
  EXPECT_FALSE(spec->has_timestamp());
  EXPECT_EQ(spec->ToString(), "feat_1");
}

TEST(RefSpecTest, ParseEpochMicrosSuffix) {
  auto spec = RefSpec::Parse("main@1680000000000000");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->name(), "main");
  ASSERT_TRUE(spec->has_timestamp());
  EXPECT_EQ(spec->timestamp_micros(), 1680000000000000ull);
  // Round trip through ToString and back.
  auto again = RefSpec::Parse(spec->ToString());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *spec);
}

TEST(RefSpecTest, ParseIso8601Suffix) {
  // 2023-04-01T00:00:00 UTC = 1680307200 seconds.
  auto day = RefSpec::Parse("main@2023-04-01");
  ASSERT_TRUE(day.ok());
  EXPECT_EQ(day->timestamp_micros(), 1680307200000000ull);

  auto second = RefSpec::Parse("main@2023-04-01T12:30:05");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->timestamp_micros(),
            1680307200000000ull + (12ull * 3600 + 30 * 60 + 5) * 1000000);
}

TEST(RefSpecTest, ParseErrors) {
  EXPECT_FALSE(RefSpec::Parse("").ok());
  EXPECT_FALSE(RefSpec::Parse("@123").ok());
  EXPECT_FALSE(RefSpec::Parse("main@").ok());
  EXPECT_FALSE(RefSpec::Parse("main@not-a-time").ok());
  EXPECT_FALSE(RefSpec::Parse("main@2023-13-01").ok());
}

TEST(RefSpecTest, LenientConversionRecordsBadTimestampSuffix) {
  // The implicit constructor is the migration path for call sites that
  // pass raw strings. A malformed "@timestamp" suffix keeps the raw
  // string as the name but records the parse error with a fix-it hint:
  // `main@2026-13-99` is a time-travel typo, not a branch name, and
  // resolving it as one produced a baffling unknown-ref message.
  RefSpec bad("main@oops");
  EXPECT_EQ(bad.name(), "main@oops");
  EXPECT_FALSE(bad.has_timestamp());
  EXPECT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsInvalidArgument());
  EXPECT_NE(bad.status().message().find("epoch micros"), std::string::npos);

  RefSpec typo("main@2026-13-99");
  EXPECT_FALSE(typo.ok());

  // '@'-free strings never carry an error, however odd the name.
  RefSpec plain("feat/weird-name");
  EXPECT_TRUE(plain.ok());

  RefSpec good(std::string("main@1680000000000000"));
  EXPECT_EQ(good.name(), "main");
  EXPECT_TRUE(good.has_timestamp());
  EXPECT_TRUE(good.ok());
}

TEST_F(CatalogTest, ResolveRefSpecWithoutTimestampMatchesResolveRef) {
  ASSERT_TRUE(Commit("main", "t", "k1").ok());
  auto by_name = catalog_->ResolveRef("main");
  auto by_spec = catalog_->Resolve(RefSpec("main"));
  ASSERT_TRUE(by_spec.ok());
  EXPECT_EQ(*by_spec, *by_name);
}

TEST_F(CatalogTest, ResolveAsOfWalksToNewestCommitAtOrBefore) {
  ASSERT_TRUE(Commit("main", "t", "k1").ok());
  uint64_t after_first = clock_.NowMicros();
  clock_.AdvanceMicros(1000000);
  ASSERT_TRUE(Commit("main", "t", "k2").ok());
  auto head = catalog_->ResolveRef("main");
  ASSERT_TRUE(head.ok());

  // As-of the first commit's time: sees k1, not k2.
  auto pinned = catalog_->Resolve(RefSpec("main", after_first));
  ASSERT_TRUE(pinned.ok());
  EXPECT_NE(*pinned, *head);
  auto tables = catalog_->GetTables(*pinned);
  ASSERT_TRUE(tables.ok());
  EXPECT_EQ(tables->at("t"), "k1");

  // As-of now (or later): the head commit.
  auto at_head = catalog_->Resolve(RefSpec("main", clock_.NowMicros()));
  ASSERT_TRUE(at_head.ok());
  EXPECT_EQ(*at_head, *head);

  // As-of before the root commit: nothing to resolve.
  EXPECT_TRUE(
      catalog_->Resolve(RefSpec("main", 1)).status().IsNotFound());

  // Unknown ref still errors the usual way.
  EXPECT_TRUE(catalog_->Resolve(RefSpec("nope", after_first))
                  .status()
                  .IsNotFound());
}

TEST_F(CatalogTest, ResolveRejectsMalformedTimestampSuffix) {
  ASSERT_TRUE(Commit("main", "t", "k1").ok());
  // The swallowed parse error surfaces at resolution instead of a
  // misleading "'main@2026-13-99' is not a branch" message.
  auto resolved = catalog_->Resolve(RefSpec("main@2026-13-99"));
  ASSERT_FALSE(resolved.ok());
  EXPECT_TRUE(resolved.status().IsInvalidArgument());
  EXPECT_NE(resolved.status().message().find("YYYY-MM-DD"),
            std::string::npos);
}

// ------------------------------------------------------ merge-base walk

/// What Merge did before the lockstep walk, recomputed from public reads:
/// one full first-parent walk per ancestry question, then a scan of the
/// target's chain against the source's whole chain for the base.
struct OracleMerge {
  enum class Kind { kAlreadyMerged, kFastForward, kThreeWay, kConflict };
  Kind kind = Kind::kAlreadyMerged;
  /// Already merged / fast-forward: the head `to_branch` ends at.
  std::string head;
  /// Three-way: the merged table map.
  std::map<std::string, std::string> tables;
};

Result<std::vector<std::string>> FirstParentChain(const Catalog& catalog,
                                                  std::string id) {
  std::vector<std::string> chain;
  while (!id.empty()) {
    chain.push_back(id);
    BAUPLAN_ASSIGN_OR_RETURN(Commit c, catalog.GetCommit(id));
    id = c.parent_id;
  }
  return chain;
}

Result<OracleMerge> TwoWalkMerge(const Catalog& catalog,
                                 const std::string& from_id,
                                 const std::string& to_head) {
  BAUPLAN_ASSIGN_OR_RETURN(auto from_chain,
                           FirstParentChain(catalog, from_id));
  BAUPLAN_ASSIGN_OR_RETURN(auto to_chain, FirstParentChain(catalog, to_head));
  auto on = [](const std::vector<std::string>& chain, const std::string& id) {
    for (const auto& c : chain) {
      if (c == id) return true;
    }
    return false;
  };
  OracleMerge out;
  if (on(to_chain, from_id)) {
    out.kind = OracleMerge::Kind::kAlreadyMerged;
    out.head = to_head;
    return out;
  }
  if (on(from_chain, to_head)) {
    out.kind = OracleMerge::Kind::kFastForward;
    out.head = from_id;
    return out;
  }
  std::string base_id;
  for (const auto& id : to_chain) {
    if (on(from_chain, id)) {
      base_id = id;
      break;
    }
  }
  if (base_id.empty()) return Status::Internal("disjoint histories");
  BAUPLAN_ASSIGN_OR_RETURN(Commit base, catalog.GetCommit(base_id));
  BAUPLAN_ASSIGN_OR_RETURN(Commit ours, catalog.GetCommit(to_head));
  BAUPLAN_ASSIGN_OR_RETURN(Commit theirs, catalog.GetCommit(from_id));
  std::set<std::string> names;
  for (const auto* m : {&base.tables, &ours.tables, &theirs.tables}) {
    for (const auto& [n, k] : *m) names.insert(n);
  }
  auto lookup = [](const std::map<std::string, std::string>& m,
                   const std::string& n) {
    auto it = m.find(n);
    return it == m.end() ? std::string() : it->second;
  };
  out.kind = OracleMerge::Kind::kThreeWay;
  out.tables = ours.tables;
  for (const auto& name : names) {
    std::string b = lookup(base.tables, name);
    std::string o = lookup(ours.tables, name);
    std::string t = lookup(theirs.tables, name);
    if (o == t) continue;
    if (o != b && t != b) {
      out.kind = OracleMerge::Kind::kConflict;
      return out;
    }
    const std::string& winner = t != b ? t : o;
    if (winner.empty()) {
      out.tables.erase(name);
    } else {
      out.tables[name] = winner;
    }
  }
  return out;
}

TEST(CatalogMergePropertyTest, RandomHistoriesMergeLikeTheTwoWalkOracle) {
  std::map<OracleMerge::Kind, int> seen_kinds;
  int equal_heads = 0;
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    SCOPED_TRACE(StrCat("seed ", seed));
    storage::MemoryObjectStore store;
    SimClock clock(1000);
    auto opened = Catalog::Open(&store, &clock);
    ASSERT_TRUE(opened.ok());
    Catalog& catalog = *opened;
    Rng rng(seed);
    std::vector<std::string> branches = {"main"};
    auto pick = [&](const std::vector<std::string>& from) {
      return from[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(from.size()) - 1))];
    };

    for (int step = 0; step < 80; ++step) {
      clock.AdvanceMicros(1);
      int64_t op = rng.UniformInt(0, 9);
      if (op <= 1 && branches.size() < 6) {
        // Fork a branch off a branch head or an older commit.
        std::string name = StrCat("b", step);
        std::string from = pick(branches);
        if (rng.UniformInt(0, 2) == 0) {
          auto log = catalog.Log(from);
          ASSERT_TRUE(log.ok());
          from = pick([&] {
            std::vector<std::string> ids;
            for (const auto& c : *log) ids.push_back(c.id);
            return ids;
          }());
        }
        ASSERT_TRUE(catalog.CreateBranch(name, from).ok());
        branches.push_back(name);
      } else if (op <= 5) {
        // Repoint or delete one of a few tables on some branch.
        std::string branch = pick(branches);
        std::string table = StrCat("t", rng.UniformInt(0, 4));
        TableChanges changes;
        auto tables = catalog.GetTables(branch);
        ASSERT_TRUE(tables.ok());
        if (tables->count(table) > 0 && rng.UniformInt(0, 3) == 0) {
          changes.deletes.push_back(table);
        } else {
          changes.puts[table] = StrCat("k", seed, "_", step);
        }
        ASSERT_TRUE(
            catalog.CommitChanges(branch, "edit", "prop", changes).ok());
      } else {
        // Merge a branch (or an old commit of one) into another branch,
        // or into itself.
        std::string to_branch = pick(branches);
        std::string from_ref = pick(branches);
        if (rng.UniformInt(0, 4) == 0) {
          auto log = catalog.Log(from_ref, 6);
          ASSERT_TRUE(log.ok());
          from_ref = (*log)[static_cast<size_t>(rng.UniformInt(
                                0, static_cast<int64_t>(log->size()) - 1))]
                         .id;
        }
        auto from_id = catalog.ResolveRef(from_ref);
        auto to_head = catalog.ResolveRef(to_branch);
        ASSERT_TRUE(from_id.ok() && to_head.ok());
        if (*from_id == *to_head) ++equal_heads;
        auto oracle = TwoWalkMerge(catalog, *from_id, *to_head);
        ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
        ++seen_kinds[oracle->kind];

        auto merged = catalog.Merge(from_ref, to_branch, "prop");
        auto head_after = catalog.ResolveRef(to_branch);
        ASSERT_TRUE(head_after.ok());
        switch (oracle->kind) {
          case OracleMerge::Kind::kConflict:
            EXPECT_TRUE(merged.status().IsConflict())
                << merged.status().ToString();
            EXPECT_EQ(*head_after, *to_head);
            break;
          case OracleMerge::Kind::kAlreadyMerged:
          case OracleMerge::Kind::kFastForward:
            ASSERT_TRUE(merged.ok()) << merged.status().ToString();
            EXPECT_TRUE(merged->fast_forward);
            EXPECT_EQ(merged->commit_id, oracle->head);
            EXPECT_EQ(*head_after, oracle->head);
            break;
          case OracleMerge::Kind::kThreeWay: {
            ASSERT_TRUE(merged.ok()) << merged.status().ToString();
            EXPECT_FALSE(merged->fast_forward);
            EXPECT_EQ(*head_after, merged->commit_id);
            auto commit = catalog.GetCommit(merged->commit_id);
            ASSERT_TRUE(commit.ok());
            EXPECT_EQ(commit->parent_id, *to_head);
            EXPECT_EQ(commit->merge_parent_id, *from_id);
            EXPECT_EQ(commit->tables, oracle->tables);
            break;
          }
        }
      }
    }
  }
  // The generator reaches every outcome, including equal heads.
  EXPECT_GT(seen_kinds[OracleMerge::Kind::kAlreadyMerged], 0);
  EXPECT_GT(seen_kinds[OracleMerge::Kind::kFastForward], 0);
  EXPECT_GT(seen_kinds[OracleMerge::Kind::kThreeWay], 0);
  EXPECT_GT(seen_kinds[OracleMerge::Kind::kConflict], 0);
  EXPECT_GT(equal_heads, 0);
}

TEST(CatalogMergeCostTest, ColdMergeOnLongHistoryReadsConstantCommits) {
  // At 1,000 commits of history a merge that walked whole chains would
  // GET about 1,000 commits; the lockstep walk reads only the few
  // between the heads and their merge base.
  for (bool main_moves : {false, true}) {
    SCOPED_TRACE(main_moves ? "three-way" : "fast-forward");
    storage::MemoryObjectStore backing;
    SimClock clock(1000);
    {
      auto writer = Catalog::Open(&backing, &clock);
      ASSERT_TRUE(writer.ok());
      for (int i = 0; i < 1000; ++i) {
        TableChanges changes;
        changes.puts["history"] = StrCat("meta/history/v", i);
        ASSERT_TRUE(
            writer->CommitChanges("main", "grow", "test", changes).ok());
      }
      ASSERT_TRUE(writer->CreateBranch("feat", "main").ok());
      for (int i = 0; i < 2; ++i) {
        TableChanges changes;
        changes.puts[StrCat("feat_", i)] = StrCat("meta/feat_", i);
        ASSERT_TRUE(
            writer->CommitChanges("feat", "work", "test", changes).ok());
      }
      if (main_moves) {
        TableChanges changes;
        changes.puts["main_only"] = "meta/main_only";
        ASSERT_TRUE(
            writer->CommitChanges("main", "moves", "test", changes).ok());
      }
    }

    storage::MeteredObjectStore metered(&backing, &clock,
                                        storage::LatencyModel::Instant());
    auto reopened = Catalog::Open(&metered, &clock);
    ASSERT_TRUE(reopened.ok());
    metered.ResetMetrics();
    auto merged = reopened->Merge("feat", "main", "test");
    ASSERT_TRUE(merged.ok()) << merged.status().ToString();
    EXPECT_EQ(merged->fast_forward, !main_moves);
    // Two ref reads, then two commits per walk step for about three
    // steps (the branch is two commits past the base).
    EXPECT_LE(metered.metrics().gets, 8);

    auto tables = reopened->GetTables("main");
    ASSERT_TRUE(tables.ok());
    EXPECT_EQ(tables->at("history"), "meta/history/v999");
    EXPECT_EQ(tables->at("feat_1"), "meta/feat_1");
    EXPECT_EQ(tables->count("main_only"), main_moves ? 1u : 0u);
  }
}

// ---------------------------------------------------------- commit cache

TEST_F(CatalogTest, CommitCacheStaysWithinItsBudget) {
  // Each commit repoints one table at a 1 MiB key, so twelve commits
  // weigh more than the budget.
  static_assert(Catalog::kCommitCacheBytes < (12ull << 20));
  const std::string filler(1 << 20, 'x');
  std::vector<std::string> ids;
  for (int i = 0; i < 12; ++i) {
    auto id = Commit("main", "big", StrCat(i, filler));
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
    EXPECT_LE(catalog_->commit_cache_bytes(), Catalog::kCommitCacheBytes);
  }
  EXPECT_GT(catalog_->commit_cache_bytes(), Catalog::kCommitCacheBytes / 2);

  // Reading everything back evicts in turn and stays within the budget.
  auto log = catalog_->Log("main");
  ASSERT_TRUE(log.ok());
  ASSERT_EQ(log->size(), 13u);  // plus the root
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ((*log)[ids.size() - 1 - i].id, ids[i]);
    EXPECT_EQ((*log)[ids.size() - 1 - i].tables.at("big"),
              StrCat(i, filler));
  }
  EXPECT_LE(catalog_->commit_cache_bytes(), Catalog::kCommitCacheBytes);

  // A commit larger than the whole budget is served, never cached (the
  // head it builds on is cached first, so the budget holds still).
  ASSERT_TRUE(catalog_->GetCommit(ids.back()).ok());
  const uint64_t before = catalog_->commit_cache_bytes();
  auto huge = Commit("main", "big",
                     std::string(Catalog::kCommitCacheBytes + 1, 'y'));
  ASSERT_TRUE(huge.ok());
  EXPECT_EQ(catalog_->commit_cache_bytes(), before);
  auto read = catalog_->GetCommit(*huge);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->id, *huge);
  EXPECT_EQ(catalog_->commit_cache_bytes(), before);
}

TEST_F(CatalogTest, CommitWhoseBytesDoNotMatchItsIdIsRejectedUncached) {
  auto first = Commit("main", "t", "k1");
  auto second = Commit("main", "t", "k2");
  ASSERT_TRUE(first.ok() && second.ok());
  const std::string second_key = "catalog/commits/" + *second;
  auto good = store_.Get(second_key);
  auto wrong = store_.Get("catalog/commits/" + *first);
  ASSERT_TRUE(good.ok() && wrong.ok());

  ASSERT_TRUE(store_.Put(second_key, *wrong).ok());
  auto cold = Catalog::Open(&store_, &clock_);
  ASSERT_TRUE(cold.ok());
  EXPECT_TRUE(cold->GetCommit(*second).status().IsIOError());

  // Nothing was cached from the bad read: the repaired object reads back.
  ASSERT_TRUE(store_.Put(second_key, *good).ok());
  auto repaired = cold->GetCommit(*second);
  ASSERT_TRUE(repaired.ok()) << repaired.status().ToString();
  EXPECT_EQ(repaired->id, *second);
  EXPECT_EQ(repaired->tables.at("t"), "k2");
}

TEST(CatalogConcurrencyTest, ThreadsShareOneCommitCache) {
  // Threads resolve refs, read commits and merge on their own branches
  // over one shared history, through copies of one catalog (which share
  // its commit cache). Run under TSAN via the `catalog` label.
  storage::MemoryObjectStore store;
  SimClock clock(1000);
  auto opened = Catalog::Open(&store, &clock);
  ASSERT_TRUE(opened.ok());
  Catalog shared = *opened;
  for (int i = 0; i < 40; ++i) {
    TableChanges changes;
    changes.puts[StrCat("shared_", i % 5)] = StrCat("v", i);
    ASSERT_TRUE(shared.CommitChanges("main", "seed", "test", changes).ok());
  }
  auto main_head = shared.ResolveRef("main");
  ASSERT_TRUE(main_head.ok());

  constexpr int kThreads = 4;
  constexpr int kRounds = 24;  // even: the last round commits a side change
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(shared.CreateBranch(StrCat("dst_", t), "main").ok());
  }
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Catalog mine = shared;
      const std::string dst = StrCat("dst_", t);
      auto check = [&](bool ok) {
        if (!ok) failures.fetch_add(1);
      };
      for (int r = 0; r < kRounds; ++r) {
        // Transform-audit-write: work in a fresh branch, merge it back.
        const std::string src = StrCat("src_", t, "_", r);
        check(mine.CreateBranch(src, dst).ok());
        TableChanges work;
        work.puts[StrCat("work_", t)] = StrCat("r", r);
        check(mine.CommitChanges(src, "work", "test", work).ok());
        // Alternate fast-forward and three-way merges.
        if (r % 2 == 1) {
          TableChanges side;
          side.puts[StrCat("side_", t)] = StrCat("r", r);
          check(mine.CommitChanges(dst, "side", "test", side).ok());
        }
        check(mine.Merge(src, dst, "test").ok());
        check(mine.DeleteBranch(src).ok());
        auto head = mine.ResolveRef("main");
        check(head.ok() && *head == *main_head);
        auto commit = mine.GetCommit(*main_head);
        check(commit.ok() && commit->tables.size() == 5);
        check(mine.Log("main", 10).ok());
        check(mine.Resolve(RefSpec("main", 1000 + 20)).ok());
        auto at_dst = mine.GetTable(dst, StrCat("work_", t));
        check(at_dst.ok() && *at_dst == StrCat("r", r));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_LE(shared.commit_cache_bytes(), Catalog::kCommitCacheBytes);
  for (int t = 0; t < kThreads; ++t) {
    auto tables = shared.GetTables(StrCat("dst_", t));
    ASSERT_TRUE(tables.ok());
    EXPECT_EQ(tables->at(StrCat("work_", t)), StrCat("r", kRounds - 1));
    EXPECT_EQ(tables->at(StrCat("side_", t)), StrCat("r", kRounds - 1));
    EXPECT_EQ(tables->count("work_" + std::to_string((t + 1) % kThreads)),
              0u);
  }
}

}  // namespace
}  // namespace bauplan::catalog
