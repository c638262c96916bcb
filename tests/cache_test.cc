// The differential artifact cache, end to end: bit-identity of cached
// runs across execution modes and budgets, cross-branch reuse through
// content ids, the degradation contract under fault injection, LRU
// accounting, index persistence across platform processes, the run
// registry's cached-node record (with back-compat for pre-cache
// records), and the query result cache's payload-identity contract.

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "cache/artifact_cache.h"
#include "cache/fingerprint.h"
#include "columnar/builder.h"
#include "columnar/serialize.h"
#include "common/bytes.h"
#include "common/clock.h"
#include "common/strings.h"
#include "core/bauplan.h"
#include "core/query_cache.h"
#include "pipeline/project.h"
#include "pipeline/run_registry.h"
#include "storage/fault_injection_store.h"
#include "storage/object_store.h"
#include "workload/taxi_gen.h"

namespace bauplan {
namespace {

columnar::Table SmallTaxi() {
  workload::TaxiGenOptions gen;
  gen.rows = 2000;
  gen.start_date = "2019-03-01";
  auto table = workload::GenerateTaxiTable(gen);
  EXPECT_TRUE(table.ok()) << table.status().ToString();
  return *table;
}

pipeline::PipelineProject SmallPipeline() {
  pipeline::PipelineProject project("cache_proj");
  auto reqs =
      expectations::RequirementSet::Parse("pandas==2.0.0").ValueOrDie();
  EXPECT_TRUE(project
                  .AddSqlNode("trips",
                              "SELECT pickup_location_id, COUNT(*) AS n "
                              "FROM taxi_table GROUP BY "
                              "pickup_location_id ORDER BY "
                              "pickup_location_id",
                              reqs)
                  .ok());
  EXPECT_TRUE(project
                  .AddSqlNode("busy",
                              "SELECT pickup_location_id, n FROM trips "
                              "WHERE n > 1 ORDER BY pickup_location_id")
                  .ok());
  EXPECT_TRUE(
      project.AddExpectationNode("busy_expectation", "mean(n) > 0").ok());
  return project;
}

std::map<std::string, Bytes> ArtifactBytes(const core::RunReport& report) {
  std::map<std::string, Bytes> out;
  for (const auto& [name, table] : report.artifacts) {
    out[name] = columnar::SerializeTable(table);
  }
  return out;
}

/// Serialized bytes of every SQL node's table on `branch`. A warm run
/// reports only what it computed; what the cache served is on the branch.
std::map<std::string, Bytes> BranchBytes(
    core::Bauplan& bp, const std::string& branch,
    const pipeline::PipelineProject& project) {
  std::map<std::string, Bytes> out;
  for (const auto& node : project.nodes()) {
    if (node.kind != pipeline::NodeKind::kSqlModel) continue;
    auto table = bp.ReadTable(branch, node.name);
    EXPECT_TRUE(table.ok()) << node.name << ": " << table.status().ToString();
    if (table.ok()) out[node.name] = columnar::SerializeTable(*table);
  }
  return out;
}

/// A platform over its own in-memory store, pre-seeded with taxi data.
struct Platform {
  storage::MemoryObjectStore base;
  storage::FaultInjectionStore store{&base};
  SimClock clock{1700000000000000ull};
  std::unique_ptr<core::Bauplan> bp;

  explicit Platform(core::BauplanOptions options = {}) {
    auto opened = core::Bauplan::Open(&store, &clock, options);
    EXPECT_TRUE(opened.ok()) << opened.status().ToString();
    bp = std::move(*opened);
    auto taxi = SmallTaxi();
    EXPECT_TRUE(bp->CreateTable("main", "taxi_table", taxi.schema()).ok());
    EXPECT_TRUE(bp->WriteTable("main", "taxi_table", taxi).ok());
  }
};

// ---------------------------------------------------------------------
// Bit-identity battery: after a warm run the branch must hold the same
// bytes the cold run computed, in every mode × budget combination,
// whether or not anything was actually served from cache.
// ---------------------------------------------------------------------

struct BatteryCase {
  int parallelism;
  uint64_t budget;
  bool expect_hits;  // budget large enough to actually serve
};

// Names each case by its fields. Without it gtest prints the raw bytes
// of the struct, padding included, so the listed test names changed
// from one process to the next.
void PrintTo(const BatteryCase& c, std::ostream* os) {
  *os << "parallelism=" << c.parallelism << ", budget=" << c.budget;
}

class CacheBitIdentityTest : public ::testing::TestWithParam<BatteryCase> {};

TEST_P(CacheBitIdentityTest, WarmRunMatchesCold) {
  const BatteryCase& c = GetParam();
  core::BauplanOptions options;
  options.artifact_cache_bytes = c.budget;
  Platform p(options);

  auto project = SmallPipeline();
  core::PipelineRunOptions run;
  run.fused = false;
  run.parallelism = c.parallelism;

  auto cold = p.bp->Run(project, "main", run);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  ASSERT_TRUE(cold->merged);
  auto warm = p.bp->Run(project, "main", run);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  ASSERT_TRUE(warm->merged);

  EXPECT_EQ(ArtifactBytes(*cold), BranchBytes(*p.bp, "main", project));
  auto stats = p.bp->artifact_cache_stats();
  if (c.expect_hits) {
    EXPECT_GT(stats.hits, 0);
    for (const auto& node : warm->nodes) {
      EXPECT_TRUE(node.cache_hit) << node.name;
    }
  } else if (c.budget == 0) {
    EXPECT_EQ(stats.hits, 0);
    for (const auto& node : warm->nodes) {
      EXPECT_FALSE(node.cache_hit) << node.name;
    }
  } else {
    // A tiny-but-nonzero budget holds byte-sized expectation outcomes
    // but no SQL entry (a table reference is longer): SQL models must
    // all have re-executed.
    for (const auto& node : warm->nodes) {
      if (node.kind == pipeline::NodeKind::kSqlModel) {
        EXPECT_FALSE(node.cache_hit) << node.name;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ParallelismByBudget, CacheBitIdentityTest,
    ::testing::Values(BatteryCase{1, 0, false},      // disabled
                      BatteryCase{4, 0, false},      //
                      BatteryCase{1, 64, false},     // too tiny to hold
                      BatteryCase{4, 64, false},     //
                      BatteryCase{1, 1ull << 30, true},
                      BatteryCase{4, 1ull << 30, true}));

// A cache filled at one parallelism serves another: exec knobs are
// excluded from the fingerprint because the determinism contract makes
// the bytes identical across them.
TEST(ArtifactCachePlatformTest, CacheCrossesParallelism) {
  Platform p;
  auto project = SmallPipeline();
  core::PipelineRunOptions run;
  run.fused = false;
  run.parallelism = 4;
  auto cold = p.bp->Run(project, "main", run);
  ASSERT_TRUE(cold.ok());

  run.parallelism = 1;
  auto warm = p.bp->Run(project, "main", run);
  ASSERT_TRUE(warm.ok());
  for (const auto& node : warm->nodes) {
    EXPECT_TRUE(node.cache_hit) << node.name;
  }
  EXPECT_EQ(ArtifactBytes(*cold), BranchBytes(*p.bp, "main", project));
}

// Fused and naive runs share entries the same way.
TEST(ArtifactCachePlatformTest, CacheCrossesFusionMode) {
  Platform p;
  auto project = SmallPipeline();
  core::PipelineRunOptions naive;
  naive.fused = false;
  auto cold = p.bp->Run(project, "main", naive);
  ASSERT_TRUE(cold.ok());

  core::PipelineRunOptions fused;  // default fused = true
  auto warm = p.bp->Run(project, "main", fused);
  ASSERT_TRUE(warm.ok());
  for (const auto& node : warm->nodes) {
    EXPECT_TRUE(node.cache_hit) << node.name;
  }
  // A fused run the cache serves whole invokes no function.
  EXPECT_FALSE(warm->fused.has_value());
  EXPECT_TRUE(warm->artifacts.empty());
  EXPECT_EQ(ArtifactBytes(*cold), BranchBytes(*p.bp, "main", project));
}

// A trimmed run bypasses the cache entirely: trimmed artifact bytes
// depend on downstream consumers, which the upstream-only Merkle key
// cannot capture — serving an untrimmed cached artifact would undo the
// trim (and vice versa).
TEST(ArtifactCachePlatformTest, TrimmedRunsBypassTheCache) {
  Platform p;
  auto project = SmallPipeline();
  core::PipelineRunOptions run;  // fused: the mode that trims
  ASSERT_TRUE(p.bp->Run(project, "main", run).ok());  // fill, untrimmed

  core::PipelineRunOptions trimmed = run;
  trimmed.trim_unused_columns = true;
  int64_t hits_before = p.bp->artifact_cache_stats().hits;
  int64_t inserts_before = p.bp->artifact_cache_stats().inserts;
  auto report = p.bp->Run(project, "main", trimmed);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  for (const auto& node : report->nodes) {
    EXPECT_FALSE(node.cache_hit) << node.name;
  }
  EXPECT_EQ(p.bp->artifact_cache_stats().hits, hits_before);
  EXPECT_EQ(p.bp->artifact_cache_stats().inserts, inserts_before);
}

// ---------------------------------------------------------------------
// Cross-branch reuse: fingerprints address content (table metadata
// keys), not refs, so a fork of main replays main's cache for free.
// ---------------------------------------------------------------------

TEST(ArtifactCachePlatformTest, ForkReusesMainArtifacts) {
  Platform p;
  auto project = SmallPipeline();
  core::PipelineRunOptions run;
  run.fused = false;

  auto on_main = p.bp->Run(project, "main", run);
  ASSERT_TRUE(on_main.ok());
  int64_t hits_before = p.bp->artifact_cache_stats().hits;

  ASSERT_TRUE(p.bp->CreateBranch("feature", "main").ok());
  auto on_fork = p.bp->Run(project, "feature", run);
  ASSERT_TRUE(on_fork.ok());
  for (const auto& node : on_fork->nodes) {
    EXPECT_TRUE(node.cache_hit) << node.name;
  }
  EXPECT_EQ(p.bp->artifact_cache_stats().hits - hits_before,
            static_cast<int64_t>(on_fork->nodes.size()));
  EXPECT_EQ(ArtifactBytes(*on_main), BranchBytes(*p.bp, "feature", project));
}

// ...and writing new data to the fork re-keys everything downstream of
// the changed table, on the fork only.
TEST(ArtifactCachePlatformTest, ForkWriteInvalidatesForkOnly) {
  Platform p;
  auto project = SmallPipeline();
  core::PipelineRunOptions run;
  run.fused = false;
  ASSERT_TRUE(p.bp->Run(project, "main", run).ok());

  ASSERT_TRUE(p.bp->CreateBranch("feature", "main").ok());
  ASSERT_TRUE(
      p.bp->WriteTable("feature", "taxi_table", SmallTaxi()).ok());
  auto on_fork = p.bp->Run(project, "feature", run);
  ASSERT_TRUE(on_fork.ok());
  for (const auto& node : on_fork->nodes) {
    EXPECT_FALSE(node.cache_hit) << node.name;
  }

  // Main's entries were untouched: a main re-run still hits everywhere.
  auto on_main = p.bp->Run(project, "main", run);
  ASSERT_TRUE(on_main.ok());
  for (const auto& node : on_main->nodes) {
    EXPECT_TRUE(node.cache_hit) << node.name;
  }
}

// ---------------------------------------------------------------------
// Degradation contract under fault injection.
// ---------------------------------------------------------------------

TEST(ArtifactCachePlatformTest, CacheFaultsNeverFailARun) {
  Platform p;
  auto project = SmallPipeline();
  core::PipelineRunOptions run;
  run.fused = false;
  run.parallelism = 4;
  ASSERT_TRUE(p.bp->Run(project, "main", run).ok());  // fill

  // Every cache/ op now errors; catalog and data paths stay healthy.
  p.store.FailOnlyPrefix("cache/");
  p.store.FailAfter(0);
  int64_t hits_before = p.bp->artifact_cache_stats().hits;
  auto degraded = p.bp->Run(project, "main", run);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_TRUE(degraded->merged);
  EXPECT_EQ(p.bp->artifact_cache_stats().hits, hits_before);
  for (const auto& node : degraded->nodes) {
    EXPECT_FALSE(node.cache_hit) << node.name;
  }

  // Healed, the next run re-inserts what the failed probes dropped.
  p.store.Heal();
  int64_t inserts_before = p.bp->artifact_cache_stats().inserts;
  auto recovered = p.bp->Run(project, "main", run);
  ASSERT_TRUE(recovered.ok());
  EXPECT_GT(p.bp->artifact_cache_stats().inserts, inserts_before);
}

// ---------------------------------------------------------------------
// ArtifactCache unit level: LRU, eviction, stats, persistence.
// ---------------------------------------------------------------------

/// A SQL entry naming a table version of node "n".
cache::CachedArtifact MakeArtifact(int64_t rows) {
  cache::CachedArtifact artifact;
  artifact.metadata_key = StrCat("lake/n/metadata/", rows, ".meta");
  artifact.output_rows = rows;
  artifact.output_bytes = rows * 16;
  return artifact;
}

TEST(ArtifactCacheTest, LruEvictionUnderBudget) {
  storage::MemoryObjectStore store;
  auto one_entry = MakeArtifact(100).Serialize().size();
  // Room for two entries, not three.
  cache::ArtifactCache cache(&store, 2 * one_entry + one_entry / 2);

  cache.Insert("n", "k1", MakeArtifact(100));
  cache.Insert("n", "k2", MakeArtifact(100));
  EXPECT_EQ(cache.entry_count(), 2u);
  // Touch k1 so k2 becomes the LRU victim.
  EXPECT_TRUE(cache.Lookup("n", "k1").has_value());
  cache.Insert("n", "k3", MakeArtifact(100));

  auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.evictions, 1);
  EXPECT_TRUE(cache.Lookup("n", "k1").has_value());
  EXPECT_FALSE(cache.Lookup("n", "k2").has_value());
  EXPECT_TRUE(cache.Lookup("n", "k3").has_value());
  EXPECT_LE(cache.used_bytes(), cache.budget_bytes());
}

TEST(ArtifactCacheTest, OverBudgetPayloadIsSkippedNotFatal) {
  storage::MemoryObjectStore store;
  cache::ArtifactCache cache(&store, 16);
  cache.Insert("n", "huge", MakeArtifact(1000));
  EXPECT_EQ(cache.entry_count(), 0u);
  EXPECT_FALSE(cache.Lookup("n", "huge").has_value());
}

TEST(ArtifactCacheTest, ZeroBudgetDisables) {
  storage::MemoryObjectStore store;
  cache::ArtifactCache cache(&store, 0);
  EXPECT_FALSE(cache.enabled());
  cache.Insert("n", "k", MakeArtifact(10));
  EXPECT_FALSE(cache.Lookup("n", "k").has_value());
  EXPECT_EQ(cache.stats().inserts, 0);
}

TEST(ArtifactCacheTest, LoadIndexSeesEarlierProcessEntries) {
  storage::MemoryObjectStore store;
  {
    cache::ArtifactCache writer(&store, 1 << 20);
    writer.Insert("n", "persisted", MakeArtifact(50));
  }
  cache::ArtifactCache reader(&store, 1 << 20);
  EXPECT_FALSE(reader.Lookup("n", "persisted").has_value());  // index empty
  reader.LoadIndex();
  auto hit = reader.Lookup("n", "persisted");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->output_rows, 50);
  EXPECT_EQ(hit->metadata_key, "lake/n/metadata/50.meta");
  EXPECT_EQ(hit->output_bytes, 800);
}

TEST(ArtifactCacheTest, CorruptEntryDroppedOnFirstTouch) {
  storage::MemoryObjectStore store;
  cache::ArtifactCache cache(&store, 1 << 20);
  cache.Insert("n", "k", MakeArtifact(10));
  ASSERT_TRUE(store.Put("cache/n/k", Bytes{0xde, 0xad}).ok());
  EXPECT_FALSE(cache.Lookup("n", "k").has_value());
  EXPECT_EQ(cache.entry_count(), 0u);  // dropped, not retried forever
}

// An entry of the previous format (version 1, a serialized table) is a
// miss, not a table reference.
TEST(ArtifactCacheTest, OlderFormatEntryIsAMiss) {
  storage::MemoryObjectStore store;
  cache::ArtifactCache cache(&store, 1 << 20);
  cache.Insert("n", "k", MakeArtifact(10));
  Bytes entry = MakeArtifact(10).Serialize();
  entry[0] = 1;
  ASSERT_TRUE(store.Put("cache/n/k", entry).ok());
  EXPECT_FALSE(cache.Lookup("n", "k").has_value());
  EXPECT_EQ(cache.stats().misses, 1);
}

TEST(ArtifactCacheTest, ClearDropsEverything) {
  storage::MemoryObjectStore store;
  cache::ArtifactCache cache(&store, 1 << 20);
  cache.Insert("n", "a", MakeArtifact(10));
  cache.Insert("n", "b", MakeArtifact(10));
  auto dropped = cache.Clear();
  ASSERT_TRUE(dropped.ok());
  EXPECT_EQ(*dropped, 2u);
  EXPECT_EQ(cache.entry_count(), 0u);
  EXPECT_EQ(cache.used_bytes(), 0u);
  EXPECT_FALSE(cache.Lookup("n", "a").has_value());
}

// DropNode deletes one node's entries, including ones only another
// process indexed, and leaves other nodes' entries (even a node whose
// name extends it) alone.
TEST(ArtifactCacheTest, DropNodeDropsOnlyThatNode) {
  storage::MemoryObjectStore store;
  cache::ArtifactCache other(&store, 1 << 20);
  other.Insert("trips", "elsewhere", MakeArtifact(5));
  cache::ArtifactCache cache(&store, 1 << 20);
  cache.Insert("trips", "a", MakeArtifact(10));
  cache.Insert("trips_2", "b", MakeArtifact(10));
  cache.Insert("pickups", "c", MakeArtifact(10));
  const uint64_t kept = MakeArtifact(10).Serialize().size() * 2;

  auto dropped = cache.DropNode("trips");
  ASSERT_TRUE(dropped.ok()) << dropped.status().ToString();
  EXPECT_EQ(*dropped, 2u);
  EXPECT_FALSE(cache.Lookup("trips", "a").has_value());
  EXPECT_TRUE(cache.Lookup("trips_2", "b").has_value());
  EXPECT_TRUE(cache.Lookup("pickups", "c").has_value());
  EXPECT_EQ(cache.entry_count(), 2u);
  EXPECT_EQ(cache.used_bytes(), kept);
  EXPECT_FALSE(store.Exists("cache/trips/elsewhere"));
}

TEST(ArtifactCacheTest, ExpectationArtifactRoundTrips) {
  cache::CachedArtifact artifact;
  artifact.kind = pipeline::NodeKind::kExpectation;
  artifact.expectation_passed = false;
  artifact.details = "mean(count) > 0 failed";
  auto decoded = cache::CachedArtifact::Deserialize(artifact.Serialize());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->kind, pipeline::NodeKind::kExpectation);
  EXPECT_FALSE(decoded->expectation_passed);
  EXPECT_EQ(decoded->details, "mean(count) > 0 failed");
}

// A payload size (the metadata key's length) one byte past the remaining
// bytes is an IOError before the key is allocated.
TEST(ArtifactCacheTest, PayloadSizePastTheEntryIsIOError) {
  Bytes entry = MakeArtifact(10).Serialize();
  // The u32 key length follows the version, kind, audit flag, empty
  // details string and row count.
  const size_t size_at = 1 + 1 + 1 + 4 + 8;
  const uint32_t past = static_cast<uint32_t>(entry.size() - size_at - 4 + 1);
  std::memcpy(entry.data() + size_at, &past, sizeof(past));
  auto decoded = cache::CachedArtifact::Deserialize(entry);
  EXPECT_TRUE(decoded.status().IsIOError()) << decoded.status().ToString();
}

// ---------------------------------------------------------------------
// Fingerprints.
// ---------------------------------------------------------------------

TEST(FingerprintTest, CodeChangeRekeysOnlyTheCone) {
  Platform p;
  auto a = SmallPipeline();
  pipeline::PipelineProject b("cache_proj");
  for (const auto& n : a.nodes()) {
    // Mutate the terminal SQL node only; "trips" feeds it.
    std::string code =
        n.name == "busy" ? n.code + " LIMIT 10" : n.code;
    Status st = n.kind == pipeline::NodeKind::kSqlModel
                    ? b.AddSqlNode(n.name, code, n.requirements)
                    : b.AddExpectationNode(n.name, code, n.requirements);
    ASSERT_TRUE(st.ok());
  }
  auto dag_a = pipeline::Dag::Build(a, {"taxi_table"});
  auto dag_b = pipeline::Dag::Build(b, {"taxi_table"});
  ASSERT_TRUE(dag_a.ok() && dag_b.ok());
  std::set<std::string> all_a(dag_a->execution_order().begin(),
                              dag_a->execution_order().end());
  auto keys_a = cache::ComputeNodeFingerprints(*dag_a, all_a,
                                               p.bp->mutable_catalog(),
                                               "main");
  auto keys_b = cache::ComputeNodeFingerprints(*dag_b, all_a,
                                               p.bp->mutable_catalog(),
                                               "main");
  EXPECT_EQ(keys_a.Find("trips"), keys_b.Find("trips"));
  EXPECT_NE(keys_a.Find("busy"), keys_b.Find("busy"));
  // The expectation audits busy, so it re-keys with it.
  EXPECT_NE(keys_a.Find("busy_expectation"),
            keys_b.Find("busy_expectation"));
  for (const auto& [name, key] : keys_a.key_of) {
    EXPECT_FALSE(key.empty()) << name;
  }
}

TEST(FingerprintTest, UnresolvableInputYieldsEmptyKeys) {
  Platform p;
  pipeline::PipelineProject project("ghost");
  ASSERT_TRUE(
      project.AddSqlNode("reader", "SELECT * FROM no_such_table").ok());
  // The DAG resolves (the table is "known"), but the catalog at main has
  // no such table, so no content id exists to fingerprint against.
  auto dag = pipeline::Dag::Build(project, {"no_such_table"});
  ASSERT_TRUE(dag.ok());
  auto keys = cache::ComputeNodeFingerprints(
      *dag, {"reader"}, p.bp->mutable_catalog(), "main");
  EXPECT_TRUE(keys.Find("reader").empty());
}

// ---------------------------------------------------------------------
// Run registry: cached_nodes record + pre-cache back-compat.
// ---------------------------------------------------------------------

TEST(RunRegistryCacheTest, CachedNodesRoundTrip) {
  storage::MemoryObjectStore store;
  SimClock clock(1000);
  pipeline::RunRegistry registry(&store, &clock, "runs");
  pipeline::PipelineProject project("p");
  ASSERT_TRUE(project.AddSqlNode("n", "SELECT 1 AS one", {}).ok());
  auto record = registry.RegisterRun(project, "main", "commit-1");
  ASSERT_TRUE(record.ok());
  ASSERT_TRUE(
      registry.FinishRun(*record, "succeeded", "commit-2", {"n", "m"}).ok());
  auto loaded = registry.GetRun(record->run_id);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->cached_nodes,
            (std::vector<std::string>{"n", "m"}));
}

TEST(RunRegistryCacheTest, PreCacheRecordDeserializes) {
  // A record serialized before the cached_nodes tail existed: the exact
  // v1 field sequence, ending at the project snapshot.
  BinaryWriter w;
  w.PutI64(7);
  w.PutString("legacy_project");
  w.PutString("fp");
  w.PutString("data-commit");
  w.PutString("result-commit");
  w.PutString("main");
  w.PutU64(123456);
  w.PutString("succeeded");
  w.PutU32(0);  // empty snapshot
  auto record = pipeline::RunRecord::Deserialize(w.TakeBuffer());
  ASSERT_TRUE(record.ok()) << record.status().ToString();
  EXPECT_EQ(record->run_id, 7);
  EXPECT_EQ(record->project_name, "legacy_project");
  EXPECT_TRUE(record->cached_nodes.empty());
}

TEST(RunRegistryCacheTest, PlatformRecordsCachedNodes) {
  Platform p;
  auto project = SmallPipeline();
  core::PipelineRunOptions run;
  run.fused = false;
  auto cold = p.bp->Run(project, "main", run);
  ASSERT_TRUE(cold.ok());
  auto warm = p.bp->Run(project, "main", run);
  ASSERT_TRUE(warm.ok());

  auto cold_record = p.bp->run_registry().GetRun(cold->run_id);
  auto warm_record = p.bp->run_registry().GetRun(warm->run_id);
  ASSERT_TRUE(cold_record.ok() && warm_record.ok());
  EXPECT_TRUE(cold_record->cached_nodes.empty());
  EXPECT_EQ(warm_record->cached_nodes.size(), warm->nodes.size());
}

// ---------------------------------------------------------------------
// Query result cache: cached and uncached paths must return identical
// payloads, including plan/lint capture.
// ---------------------------------------------------------------------

TEST(QueryCachePayloadTest, CachedPayloadMatchesUncached) {
  Platform p;
  const std::string sql =
      "SELECT pickup_location_id, COUNT(*) AS n FROM taxi_table "
      "GROUP BY pickup_location_id ORDER BY pickup_location_id";
  sql::QueryOptions options;
  options.capture_plans = true;

  auto fresh = p.bp->Query(sql, {}, options);
  ASSERT_TRUE(fresh.ok());
  EXPECT_FALSE(fresh->from_cache);
  auto cached = p.bp->Query(sql, {}, options);
  ASSERT_TRUE(cached.ok());
  EXPECT_TRUE(cached->from_cache);

  EXPECT_EQ(columnar::SerializeTable(fresh->table),
            columnar::SerializeTable(cached->table));
  EXPECT_EQ(fresh->logical_plan, cached->logical_plan);
  EXPECT_EQ(fresh->physical_plan, cached->physical_plan);
  EXPECT_EQ(fresh->lints.size(), cached->lints.size());
  EXPECT_EQ(fresh->stats.rows_output, cached->stats.rows_output);
  EXPECT_EQ(fresh->stats.rows_scanned, cached->stats.rows_scanned);
}

TEST(QueryCachePayloadTest, PlanLessEntryDoesNotServeExplain) {
  Platform p;
  const std::string sql = "SELECT COUNT(*) AS n FROM taxi_table";

  auto plain = p.bp->Query(sql);  // fills a plan-less entry
  ASSERT_TRUE(plain.ok());
  EXPECT_TRUE(plain->logical_plan.empty());

  sql::QueryOptions explain;
  explain.capture_plans = true;
  auto with_plans = p.bp->Query(sql, {}, explain);
  ASSERT_TRUE(with_plans.ok());
  // The plan-less entry must not satisfy a capture_plans request...
  EXPECT_FALSE(with_plans->from_cache);
  EXPECT_FALSE(with_plans->logical_plan.empty());

  // ...and the upgraded entry now serves both shapes.
  auto again = p.bp->Query(sql, {}, explain);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->from_cache);
  EXPECT_EQ(again->logical_plan, with_plans->logical_plan);
  auto plain_again = p.bp->Query(sql);
  ASSERT_TRUE(plain_again.ok());
  EXPECT_TRUE(plain_again->from_cache);
  // Plain requests get no plan text, exactly like an uncached plain run.
  EXPECT_TRUE(plain_again->logical_plan.empty());
  EXPECT_TRUE(plain_again->lints.empty());
}

}  // namespace
}  // namespace bauplan
