#include <gtest/gtest.h>

#include "common/bytes.h"
#include "common/clock.h"
#include "pipeline/dag.h"
#include "pipeline/project.h"
#include "pipeline/run_registry.h"
#include "storage/object_store.h"

namespace bauplan::pipeline {
namespace {

// ---------------------------------------------------------------- project

TEST(ProjectTest, PaperPipelineAssembles) {
  PipelineProject project = MakePaperTaxiPipeline();
  ASSERT_EQ(project.nodes().size(), 3u);
  EXPECT_EQ(project.nodes()[0].name, "trips");
  EXPECT_EQ(project.nodes()[1].name, "trips_expectation");
  EXPECT_EQ(project.nodes()[1].kind, NodeKind::kExpectation);
  EXPECT_EQ(project.nodes()[1].requirements.ToString(), "pandas==2.0.0");
  EXPECT_EQ(project.nodes()[2].name, "pickups");
  EXPECT_NE(project.FindNode("trips"), nullptr);
  EXPECT_EQ(project.FindNode("nope"), nullptr);
}

TEST(ProjectTest, DuplicateNodeRejected) {
  PipelineProject project("p");
  ASSERT_TRUE(project.AddSqlNode("a", "SELECT * FROM t").ok());
  EXPECT_TRUE(
      project.AddSqlNode("a", "SELECT * FROM u").IsAlreadyExists());
}

TEST(ProjectTest, ExpectationNamingConventionEnforced) {
  PipelineProject project("p");
  EXPECT_FALSE(
      project.AddExpectationNode("check_trips", "mean(x) > 1").ok());
  EXPECT_TRUE(
      project.AddExpectationNode("trips_expectation", "mean(x) > 1").ok());
  auto target = project.FindNode("trips_expectation")->ExpectationTarget();
  ASSERT_TRUE(target.ok());
  EXPECT_EQ(*target, "trips");
}

TEST(ProjectTest, SnapshotRoundTripAndFingerprint) {
  PipelineProject project = MakePaperTaxiPipeline();
  std::string fp = project.Fingerprint();
  EXPECT_EQ(fp.size(), 16u);
  // Deterministic.
  EXPECT_EQ(fp, MakePaperTaxiPipeline().Fingerprint());
  // Different threshold -> different code -> different fingerprint.
  EXPECT_NE(fp, MakePaperTaxiPipeline(99).Fingerprint());

  auto restored = PipelineProject::FromSnapshot(project.Snapshot());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->Fingerprint(), fp);
  EXPECT_EQ(restored->nodes().size(), 3u);
  EXPECT_EQ(restored->nodes()[1].requirements.ToString(),
            "pandas==2.0.0");
}

// -------------------------------------------------------------------- DAG

TEST(DagTest, PaperPipelineDag) {
  PipelineProject project = MakePaperTaxiPipeline();
  auto dag = Dag::Build(project, {"taxi_table"});
  ASSERT_TRUE(dag.ok()) << dag.status().ToString();
  // trips first; expectation and pickups after (both depend on trips).
  const auto& order = dag->execution_order();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], "trips");

  const DagNode& trips = dag->GetNode("trips");
  ASSERT_EQ(trips.source_tables.size(), 1u);
  EXPECT_EQ(trips.source_tables[0], "taxi_table");
  EXPECT_TRUE(trips.upstream_nodes.empty());

  const DagNode& pickups = dag->GetNode("pickups");
  ASSERT_EQ(pickups.upstream_nodes.size(), 1u);
  EXPECT_EQ(pickups.upstream_nodes[0], "trips");

  const DagNode& expectation = dag->GetNode("trips_expectation");
  ASSERT_EQ(expectation.upstream_nodes.size(), 1u);
  EXPECT_EQ(expectation.upstream_nodes[0], "trips");

  EXPECT_EQ(dag->AllSourceTables(),
            std::set<std::string>{"taxi_table"});
}

TEST(DagTest, UnknownReferenceFails) {
  PipelineProject project("p");
  ASSERT_TRUE(project.AddSqlNode("a", "SELECT * FROM nowhere").ok());
  auto dag = Dag::Build(project, {"taxi_table"});
  ASSERT_FALSE(dag.ok());
  EXPECT_TRUE(dag.status().IsNotFound());
}

TEST(DagTest, CycleDetected) {
  PipelineProject project("p");
  ASSERT_TRUE(project.AddSqlNode("a", "SELECT * FROM b").ok());
  ASSERT_TRUE(project.AddSqlNode("b", "SELECT * FROM a").ok());
  auto dag = Dag::Build(project, {});
  ASSERT_FALSE(dag.ok());
  EXPECT_TRUE(dag.status().IsInvalidArgument());
  EXPECT_NE(dag.status().message().find("cycle"), std::string::npos);
}

TEST(DagTest, SelfReferenceRejected) {
  PipelineProject project("p");
  ASSERT_TRUE(project.AddSqlNode("a", "SELECT * FROM a").ok());
  EXPECT_FALSE(Dag::Build(project, {}).ok());
}

TEST(DagTest, NodeShadowsSourceTable) {
  // A node named like a catalog table wins the reference.
  PipelineProject project("p");
  ASSERT_TRUE(project.AddSqlNode("trips", "SELECT * FROM raw").ok());
  ASSERT_TRUE(project.AddSqlNode("agg", "SELECT * FROM trips").ok());
  auto dag = Dag::Build(project, {"raw", "trips"});
  ASSERT_TRUE(dag.ok());
  EXPECT_EQ(dag->GetNode("agg").upstream_nodes[0], "trips");
  EXPECT_TRUE(dag->GetNode("agg").source_tables.empty());
}

TEST(DagTest, DescendantsSelector) {
  PipelineProject project("p");
  ASSERT_TRUE(project.AddSqlNode("a", "SELECT * FROM src").ok());
  ASSERT_TRUE(project.AddSqlNode("b", "SELECT * FROM a").ok());
  ASSERT_TRUE(project.AddSqlNode("c", "SELECT * FROM b").ok());
  ASSERT_TRUE(project.AddSqlNode("d", "SELECT * FROM src").ok());
  auto dag = Dag::Build(project, {"src"});
  ASSERT_TRUE(dag.ok());

  auto from_b = dag->DescendantsOf("b");
  ASSERT_TRUE(from_b.ok());
  EXPECT_EQ(*from_b, (std::vector<std::string>{"b", "c"}));

  auto from_a = dag->DescendantsOf("a");
  ASSERT_TRUE(from_a.ok());
  EXPECT_EQ(*from_a, (std::vector<std::string>{"a", "b", "c"}));

  EXPECT_FALSE(dag->DescendantsOf("zzz").ok());
}

TEST(DagTest, JoinNodeHasTwoUpstreams) {
  PipelineProject project("p");
  ASSERT_TRUE(project.AddSqlNode("a", "SELECT * FROM src1").ok());
  ASSERT_TRUE(project.AddSqlNode(
      "joined",
      "SELECT * FROM a JOIN src2 s ON a.id = s.id").ok());
  auto dag = Dag::Build(project, {"src1", "src2"});
  ASSERT_TRUE(dag.ok()) << dag.status().ToString();
  const DagNode& joined = dag->GetNode("joined");
  EXPECT_EQ(joined.upstream_nodes,
            std::vector<std::string>{"a"});
  EXPECT_EQ(joined.source_tables,
            std::vector<std::string>{"src2"});
}

TEST(DagTest, ToStringShowsShape) {
  PipelineProject project = MakePaperTaxiPipeline();
  auto dag = Dag::Build(project, {"taxi_table"});
  std::string text = dag->ToString();
  EXPECT_NE(text.find("trips [sql] <- taxi_table"), std::string::npos);
  EXPECT_NE(text.find("trips_expectation [expectation] <- trips"),
            std::string::npos);
}

// ----------------------------------------------------------- run registry

class RunRegistryTest : public ::testing::Test {
 protected:
  RunRegistryTest() : registry_(&store_, &clock_) {}

  storage::MemoryObjectStore store_;
  SimClock clock_{5000};
  RunRegistry registry_;
};

TEST_F(RunRegistryTest, RegisterAssignsDenseIds) {
  PipelineProject project = MakePaperTaxiPipeline();
  auto r1 = registry_.RegisterRun(project, "main", "commit_a");
  auto r2 = registry_.RegisterRun(project, "main", "commit_b");
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1->run_id, 1);
  EXPECT_EQ(r2->run_id, 2);
  EXPECT_EQ(r1->status, "running");
  EXPECT_EQ(r1->fingerprint, project.Fingerprint());

  auto ids = registry_.ListRuns();
  ASSERT_TRUE(ids.ok());
  EXPECT_EQ(*ids, (std::vector<int64_t>{1, 2}));
}

TEST_F(RunRegistryTest, FinishUpdatesStatusAndResultCommit) {
  PipelineProject project = MakePaperTaxiPipeline();
  auto r = registry_.RegisterRun(project, "main", "commit_a");
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(registry_.FinishRun(*r, "succeeded", "commit_m").ok());
  auto loaded = registry_.GetRun(r->run_id);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->status, "succeeded");
  EXPECT_EQ(loaded->result_commit_id, "commit_m");
  EXPECT_EQ(loaded->data_commit_id, "commit_a");
}

TEST_F(RunRegistryTest, SnapshotReproducesProject) {
  PipelineProject project = MakePaperTaxiPipeline(42.0);
  auto r = registry_.RegisterRun(project, "main", "c");
  auto restored = registry_.GetRunProject(r->run_id);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->Fingerprint(), project.Fingerprint());
  // The threshold survived the round trip inside the code text.
  EXPECT_NE(restored->FindNode("trips_expectation")->code.find("42"),
            std::string::npos);
}

TEST_F(RunRegistryTest, MissingRunIsNotFound) {
  EXPECT_TRUE(registry_.GetRun(99).status().IsNotFound());
}

// A corrupt count or size in a run record is an IOError before any
// allocation: a cached-node count no payload can hold, and a snapshot
// size one byte past the remaining bytes.
TEST(RunRecordTest, CorruptCountsAreIOError) {
  auto record_with = [](uint32_t snapshot_size, uint32_t cached_count) {
    BinaryWriter w;
    w.PutI64(7);
    w.PutString("project");
    w.PutString("fp");
    w.PutString("data-commit");
    w.PutString("result-commit");
    w.PutString("main");
    w.PutU64(123456);
    w.PutString("succeeded");
    w.PutU32(snapshot_size);
    w.PutRaw("snap", 4);
    w.PutU32(cached_count);
    return RunRecord::Deserialize(w.TakeBuffer());
  };
  ASSERT_TRUE(record_with(4, 0).ok());
  auto cached = record_with(4, 0xFFFFFFFF);
  EXPECT_TRUE(cached.status().IsIOError()) << cached.status().ToString();
  // The snapshot, then the 4-byte cached-node count, remain.
  auto snapshot = record_with(4 + 4 + 1, 0);
  EXPECT_TRUE(snapshot.status().IsIOError())
      << snapshot.status().ToString();
}

// ---------------------------------------------------------------- selector

TEST(ReplaySelectorTest, Parse) {
  auto plain = ReplaySelector::Parse("pickups");
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain->node, "pickups");
  EXPECT_FALSE(plain->include_descendants);

  auto plus = ReplaySelector::Parse("pickups+");
  ASSERT_TRUE(plus.ok());
  EXPECT_EQ(plus->node, "pickups");
  EXPECT_TRUE(plus->include_descendants);

  EXPECT_FALSE(ReplaySelector::Parse("").ok());
  EXPECT_FALSE(ReplaySelector::Parse("+").ok());
}

}  // namespace
}  // namespace bauplan::pipeline
