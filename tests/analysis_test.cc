// Tests for the static analyzer (code intelligence, paper section 4.5):
// structural reference checks, column-level schema propagation through
// the planner, expectation validation, the diagnostic renderings, and
// the platform surfaces (`bauplan check`, the run pre-flight).

#include <map>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "analysis/analyzer.h"
#include "cli/project_loader.h"
#include "sql/parser.h"
#include "common/clock.h"
#include "common/hash.h"
#include "common/strings.h"
#include "core/bauplan.h"
#include "pipeline/dag.h"
#include "pipeline/project.h"
#include "storage/object_store.h"
#include "workload/taxi_gen.h"

namespace bauplan {
namespace {

using analysis::AnalysisResult;
using analysis::Analyzer;
using columnar::Schema;
using columnar::TypeId;
using pipeline::PipelineProject;

/// In-memory resolver over a fixed name -> schema map.
class MapResolver : public sql::SchemaResolver {
 public:
  explicit MapResolver(std::map<std::string, Schema> schemas)
      : schemas_(std::move(schemas)) {}

  Result<Schema> GetTableSchema(
      const std::string& table_name) const override {
    auto it = schemas_.find(table_name);
    if (it == schemas_.end()) {
      return Status::NotFound(StrCat("table '", table_name, "' not found"));
    }
    return it->second;
  }

 private:
  std::map<std::string, Schema> schemas_;
};

Schema TaxiSchema() {
  return Schema({{"trip_id", TypeId::kInt64, false},
                 {"pickup_at", TypeId::kTimestamp, false},
                 {"pickup_location_id", TypeId::kInt64, false},
                 {"dropoff_location_id", TypeId::kInt64, false},
                 {"passenger_count", TypeId::kInt64, true},
                 {"trip_distance", TypeId::kDouble, false},
                 {"fare", TypeId::kDouble, false},
                 {"zone", TypeId::kString, false}});
}

/// Analyzer over a catalog holding just taxi_table.
AnalysisResult AnalyzeWithTaxi(const PipelineProject& project) {
  static MapResolver resolver({{"taxi_table", TaxiSchema()}});
  Analyzer analyzer({"taxi_table"}, &resolver);
  return analyzer.Analyze(project);
}

bool HasCode(const AnalysisResult& result, const std::string& code,
             std::string* message = nullptr) {
  for (const auto& d : result.diagnostics.diagnostics()) {
    if (d.code == code) {
      if (message != nullptr) *message = d.message;
      return true;
    }
  }
  return false;
}

// -------------------------------------------------------- clean projects

TEST(AnalyzerTest, PaperPipelineIsClean) {
  AnalysisResult result =
      AnalyzeWithTaxi(pipeline::MakePaperTaxiPipeline());
  EXPECT_TRUE(result.ok());
  EXPECT_TRUE(result.diagnostics.empty())
      << result.diagnostics.ToText();
  // Column-level propagation: trips renames passenger_count to count,
  // pickups aggregates trips into counts.
  ASSERT_EQ(result.node_schemas.count("trips"), 1u);
  const Schema& trips = result.node_schemas.at("trips");
  EXPECT_TRUE(trips.HasField("count"));
  EXPECT_FALSE(trips.HasField("passenger_count"));
  ASSERT_EQ(result.node_schemas.count("pickups"), 1u);
  const Schema& pickups = result.node_schemas.at("pickups");
  ASSERT_TRUE(pickups.HasField("counts"));
  EXPECT_EQ(pickups.GetFieldByName("counts")->type, TypeId::kInt64);
}

TEST(AnalyzerTest, WidePipelineIsClean) {
  AnalysisResult result =
      AnalyzeWithTaxi(pipeline::MakeWideTaxiPipeline());
  EXPECT_TRUE(result.ok()) << result.diagnostics.ToText();
  // The join node's inferred schema flows from both upstream inferences.
  ASSERT_EQ(result.node_schemas.count("trip_balance"), 1u);
  EXPECT_TRUE(
      result.node_schemas.at("trip_balance").HasField("short_rides"));
}

// ---------------------------------------------------- structural errors

TEST(AnalyzerTest, UnknownTableIsBP1001WithSuggestion) {
  PipelineProject project("p");
  ASSERT_TRUE(
      project.AddSqlNode("a", "SELECT fare FROM taxi_tabel").ok());
  AnalysisResult result = AnalyzeWithTaxi(project);
  EXPECT_FALSE(result.ok());
  std::string message;
  ASSERT_TRUE(HasCode(result, analysis::codes::kUnknownTable, &message));
  EXPECT_NE(message.find("taxi_tabel"), std::string::npos);
  // The near-miss gets a fix-it hint.
  const Diagnostic& d = result.diagnostics.diagnostics()[0];
  EXPECT_NE(d.hint.find("taxi_table"), std::string::npos);
  EXPECT_EQ(d.node, "a");
  EXPECT_EQ(d.location, "a.sql");
}

TEST(AnalyzerTest, ExpectationNodeIsNotATable) {
  PipelineProject project("p");
  ASSERT_TRUE(
      project.AddSqlNode("a", "SELECT fare FROM taxi_table").ok());
  ASSERT_TRUE(
      project.AddExpectationNode("a_expectation", "not_null(fare)").ok());
  ASSERT_TRUE(
      project.AddSqlNode("b", "SELECT * FROM a_expectation").ok());
  AnalysisResult result = AnalyzeWithTaxi(project);
  std::string message;
  ASSERT_TRUE(HasCode(result, analysis::codes::kUnknownTable, &message));
  EXPECT_NE(message.find("a_expectation"), std::string::npos);
}

TEST(AnalyzerTest, CycleIsBP1002) {
  PipelineProject project("p");
  ASSERT_TRUE(project.AddSqlNode("a", "SELECT x FROM b").ok());
  ASSERT_TRUE(project.AddSqlNode("b", "SELECT x FROM a").ok());
  AnalysisResult result = AnalyzeWithTaxi(project);
  EXPECT_FALSE(result.ok());
  std::string message;
  ASSERT_TRUE(
      HasCode(result, analysis::codes::kDependencyCycle, &message));
  EXPECT_NE(message.find("a"), std::string::npos);
  EXPECT_NE(message.find("b"), std::string::npos);
}

TEST(AnalyzerTest, SelfReferenceIsBP1002) {
  PipelineProject project("p");
  ASSERT_TRUE(project.AddSqlNode("a", "SELECT x FROM a").ok());
  AnalysisResult result = AnalyzeWithTaxi(project);
  EXPECT_TRUE(HasCode(result, analysis::codes::kDependencyCycle));
}

TEST(AnalyzerTest, ShadowWarningAloneDoesNotFailCheck) {
  PipelineProject project("p");
  // Re-running a pipeline whose outputs already exist in the catalog
  // must stay runnable: shadowing alone is a warning.
  ASSERT_TRUE(
      project.AddSqlNode("trips", "SELECT fare FROM taxi_table").ok());
  MapResolver resolver(
      {{"taxi_table", TaxiSchema()},
       {"trips", Schema({{"fare", TypeId::kDouble, false}})}});
  Analyzer analyzer({"taxi_table", "trips"}, &resolver);
  AnalysisResult result = analyzer.Analyze(project);
  EXPECT_TRUE(result.ok()) << result.diagnostics.ToText();
  EXPECT_TRUE(HasCode(result, analysis::codes::kDuplicateOutput));
  EXPECT_EQ(result.diagnostics.warning_count(), 1u);
}

TEST(AnalyzerTest, DeadAuditIsBP1004Warning) {
  PipelineProject project("p");
  ASSERT_TRUE(
      project.AddSqlNode("a", "SELECT fare FROM taxi_table").ok());
  ASSERT_TRUE(project.AddExpectationNode("taxi_table_expectation",
                                         "not_null(fare)")
                  .ok());
  AnalysisResult result = AnalyzeWithTaxi(project);
  EXPECT_TRUE(result.ok());  // warning only
  EXPECT_TRUE(HasCode(result, analysis::codes::kDeadNode));
}

TEST(AnalyzerTest, SqlParseErrorIsBP1005) {
  PipelineProject project("p");
  ASSERT_TRUE(project.AddSqlNode("a", "SELEKT fare FORM nowhere").ok());
  AnalysisResult result = AnalyzeWithTaxi(project);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(HasCode(result, analysis::codes::kSqlParseError));
  // A node that does not parse produces no downstream noise.
  EXPECT_FALSE(HasCode(result, analysis::codes::kUnknownTable));
}

// ------------------------------------------------- schema propagation

TEST(AnalyzerTest, UnknownColumnIsBP2001) {
  PipelineProject project("p");
  ASSERT_TRUE(
      project.AddSqlNode("a", "SELECT no_such_column FROM taxi_table")
          .ok());
  AnalysisResult result = AnalyzeWithTaxi(project);
  EXPECT_FALSE(result.ok());
  std::string message;
  ASSERT_TRUE(HasCode(result, analysis::codes::kUnknownColumn, &message));
  EXPECT_NE(message.find("no_such_column"), std::string::npos);
  // The hint lists the input columns for fixing the reference.
  EXPECT_NE(result.diagnostics.diagnostics()[0].hint.find("fare"),
            std::string::npos);
}

TEST(AnalyzerTest, UnknownColumnPropagatesThroughUpstreamSchema) {
  PipelineProject project("p");
  // `b` reads a column `a` renamed away: only the inferred (not source)
  // schema can catch this.
  ASSERT_TRUE(project.AddSqlNode(
                         "a",
                         "SELECT passenger_count AS count FROM taxi_table")
                  .ok());
  ASSERT_TRUE(
      project.AddSqlNode("b", "SELECT passenger_count FROM a").ok());
  AnalysisResult result = AnalyzeWithTaxi(project);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(HasCode(result, analysis::codes::kUnknownColumn));
}

TEST(AnalyzerTest, PlannerRejectionIsBP2002) {
  PipelineProject project("p");
  ASSERT_TRUE(
      project.AddSqlNode("a", "SELECT frobnicate(fare) FROM taxi_table")
          .ok());
  AnalysisResult result = AnalyzeWithTaxi(project);
  EXPECT_FALSE(result.ok());
  std::string message;
  ASSERT_TRUE(HasCode(result, analysis::codes::kTypeMismatch, &message));
  // The parser upper-cases scalar function names.
  EXPECT_NE(message.find("FROBNICATE"), std::string::npos);
}

TEST(AnalyzerTest, SchemaNarrowingOverwriteIsBP2003) {
  PipelineProject project("p");
  // `trips` exists in the catalog with (fare double, zone string); the
  // node overwrites it dropping `zone` — the */narrower-table trap.
  ASSERT_TRUE(
      project.AddSqlNode("trips", "SELECT fare FROM taxi_table").ok());
  MapResolver resolver(
      {{"taxi_table", TaxiSchema()},
       {"trips", Schema({{"fare", TypeId::kDouble, false},
                         {"zone", TypeId::kString, false}})}});
  Analyzer analyzer({"taxi_table", "trips"}, &resolver);
  AnalysisResult result = analyzer.Analyze(project);
  EXPECT_TRUE(result.ok());  // warning severity
  std::string message;
  ASSERT_TRUE(
      HasCode(result, analysis::codes::kSchemaNarrowing, &message));
  EXPECT_NE(message.find("drops column 'zone'"), std::string::npos);
}

// ------------------------------------------------------- expectations

TEST(AnalyzerTest, BadExpectationDslIsBP3001) {
  PipelineProject project("p");
  ASSERT_TRUE(
      project.AddSqlNode("a", "SELECT fare FROM taxi_table").ok());
  ASSERT_TRUE(
      project.AddExpectationNode("a_expectation", "median(fare) > 1")
          .ok());
  AnalysisResult result = AnalyzeWithTaxi(project);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(HasCode(result, analysis::codes::kBadExpectation));
}

TEST(AnalyzerTest, ExpectationUnknownColumnIsBP3002) {
  PipelineProject project("p");
  ASSERT_TRUE(project.AddSqlNode(
                         "a",
                         "SELECT passenger_count AS count FROM taxi_table")
                  .ok());
  ASSERT_TRUE(project.AddExpectationNode("a_expectation",
                                         "mean(passenger_count) > 1")
                  .ok());
  AnalysisResult result = AnalyzeWithTaxi(project);
  EXPECT_FALSE(result.ok());
  std::string message;
  ASSERT_TRUE(HasCode(result, analysis::codes::kExpectationUnknownColumn,
                      &message));
  EXPECT_NE(message.find("passenger_count"), std::string::npos);
}

TEST(AnalyzerTest, ExpectationOverNonNumericColumnIsBP3003) {
  PipelineProject project("p");
  ASSERT_TRUE(
      project.AddSqlNode("a", "SELECT zone FROM taxi_table").ok());
  ASSERT_TRUE(
      project.AddExpectationNode("a_expectation", "mean(zone) > 1").ok());
  AnalysisResult result = AnalyzeWithTaxi(project);
  EXPECT_FALSE(result.ok());
  std::string message;
  ASSERT_TRUE(HasCode(result, analysis::codes::kExpectationTypeMismatch,
                      &message));
  EXPECT_NE(message.find("string"), std::string::npos);
}

TEST(AnalyzerTest, NonNumericChecksAllowNonNumericColumns) {
  PipelineProject project("p");
  ASSERT_TRUE(
      project.AddSqlNode("a", "SELECT zone FROM taxi_table").ok());
  ASSERT_TRUE(
      project.AddExpectationNode("a_expectation", "unique(zone)").ok());
  AnalysisResult result = AnalyzeWithTaxi(project);
  EXPECT_TRUE(result.ok()) << result.diagnostics.ToText();
}

// ------------------------------------------- interval range analysis

/// Folds the WHERE clause of `sql` (against the taxi schema) into the
/// interval domain.
analysis::PredicateAnalysis AnalyzeWhere(const std::string& sql) {
  auto stmt = sql::ParseSelect(sql);
  EXPECT_TRUE(stmt.ok()) << stmt.status().message();
  return analysis::AnalyzePredicate(stmt->where, TaxiSchema());
}

TEST(RangeAnalysisTest, FoldsBoundsPerColumn) {
  auto analysis =
      AnalyzeWhere("SELECT 1 FROM t WHERE fare > 2 AND fare <= 10");
  EXPECT_FALSE(analysis.contradiction);
  ASSERT_EQ(analysis.intervals.count("fare"), 1u);
  const auto& interval = analysis.intervals.at("fare");
  ASSERT_TRUE(interval.lower.has_value());
  EXPECT_FALSE(interval.lower_inclusive);
  ASSERT_TRUE(interval.upper.has_value());
  EXPECT_TRUE(interval.upper_inclusive);
  EXPECT_TRUE(interval.not_null);  // comparisons filter nulls (3VL)
}

TEST(RangeAnalysisTest, DisjointBoundsAreAContradiction) {
  auto analysis =
      AnalyzeWhere("SELECT 1 FROM t WHERE fare > 10 AND fare < 5");
  EXPECT_TRUE(analysis.contradiction);
  EXPECT_NE(analysis.contradiction_detail.find("fare"),
            std::string::npos);
}

TEST(RangeAnalysisTest, EqualityWithExclusionIsAContradiction) {
  auto analysis =
      AnalyzeWhere("SELECT 1 FROM t WHERE fare = 5 AND fare <> 5");
  EXPECT_TRUE(analysis.contradiction);
}

TEST(RangeAnalysisTest, BetweenFoldsIntoTheInterval) {
  auto analysis = AnalyzeWhere(
      "SELECT 1 FROM t WHERE fare BETWEEN 2 AND 4 AND fare > 10");
  EXPECT_TRUE(analysis.contradiction);
}

TEST(RangeAnalysisTest, InListDisjointFromIntervalIsAContradiction) {
  auto analysis = AnalyzeWhere(
      "SELECT 1 FROM t WHERE passenger_count IN (1, 2, 3) "
      "AND passenger_count > 5");
  EXPECT_TRUE(analysis.contradiction);
}

TEST(RangeAnalysisTest, IsNullAgainstComparisonIsAContradiction) {
  auto analysis = AnalyzeWhere(
      "SELECT 1 FROM t WHERE passenger_count IS NULL "
      "AND passenger_count > 2");
  EXPECT_TRUE(analysis.contradiction);
}

TEST(RangeAnalysisTest, DuplicateAndSubsumedConjunctsAreRedundant) {
  auto duplicate =
      AnalyzeWhere("SELECT 1 FROM t WHERE fare > 5 AND fare > 5");
  EXPECT_EQ(duplicate.redundant_conjuncts.size(), 1u);
  auto subsumed =
      AnalyzeWhere("SELECT 1 FROM t WHERE fare > 10 AND fare > 5");
  ASSERT_EQ(subsumed.redundant_conjuncts.size(), 1u);
  EXPECT_NE(subsumed.redundant_conjuncts[0].find("5"),
            std::string::npos);
}

TEST(RangeAnalysisTest, IndependentConjunctsAreNotRedundant) {
  auto analysis = AnalyzeWhere(
      "SELECT 1 FROM t WHERE fare > 10 AND trip_distance > 3");
  EXPECT_FALSE(analysis.contradiction);
  EXPECT_TRUE(analysis.redundant_conjuncts.empty());
  EXPECT_TRUE(analysis.tautologies.empty());
}

TEST(RangeAnalysisTest, OpaqueStructureClaimsNothing) {
  // OR is outside the conjunctive domain: no facts, no findings.
  auto analysis =
      AnalyzeWhere("SELECT 1 FROM t WHERE fare > 10 OR fare < 5");
  EXPECT_FALSE(analysis.contradiction);
  EXPECT_TRUE(analysis.intervals.empty());
  EXPECT_TRUE(analysis.tautologies.empty());
}

TEST(RangeAnalysisTest, CrossTypeComparisonIsLossy) {
  auto lossy = AnalyzeWhere("SELECT 1 FROM t WHERE zone > 5");
  EXPECT_EQ(lossy.lossy_comparisons.size(), 1u);
  // Timestamp vs parseable timestamp string compares exactly.
  auto exact = AnalyzeWhere(
      "SELECT 1 FROM t WHERE pickup_at >= '2019-04-01'");
  EXPECT_TRUE(exact.lossy_comparisons.empty());
  EXPECT_FALSE(exact.contradiction);
}

// ---------------------------------------------- plan linter (BP4xxx)

/// First diagnostic with `code`, or nullptr.
const Diagnostic* FindCode(const AnalysisResult& result,
                           const std::string& code) {
  for (const auto& d : result.diagnostics.diagnostics()) {
    if (d.code == code) return &d;
  }
  return nullptr;
}

TEST(AnalyzerTest, ContradictoryPredicateIsBP4001Warning) {
  PipelineProject project("p");
  ASSERT_TRUE(project
                  .AddSqlNode("a",
                              "SELECT fare FROM taxi_table "
                              "WHERE fare > 10 AND fare < 5")
                  .ok());
  AnalysisResult result = AnalyzeWithTaxi(project);
  EXPECT_TRUE(result.ok());  // lints are warnings, not errors
  const Diagnostic* d =
      FindCode(result, analysis::codes::kContradictoryPredicate);
  ASSERT_NE(d, nullptr) << result.diagnostics.ToText();
  EXPECT_EQ(d->severity, DiagnosticSeverity::kWarning);
  EXPECT_EQ(d->node, "a");
  EXPECT_NE(d->message.find("always false"), std::string::npos);
}

TEST(AnalyzerTest, SatisfiablePredicateIsNotBP4001) {
  PipelineProject project("p");
  ASSERT_TRUE(project
                  .AddSqlNode("a",
                              "SELECT fare FROM taxi_table "
                              "WHERE fare > 5 AND fare < 10")
                  .ok());
  AnalysisResult result = AnalyzeWithTaxi(project);
  EXPECT_TRUE(result.diagnostics.empty())
      << result.diagnostics.ToText();
}

TEST(AnalyzerTest, TautologicalFilterIsBP4002) {
  // trip_id is declared NOT NULL, so IS NOT NULL filters nothing.
  PipelineProject project("p");
  ASSERT_TRUE(project
                  .AddSqlNode("a",
                              "SELECT fare FROM taxi_table "
                              "WHERE trip_id IS NOT NULL")
                  .ok());
  AnalysisResult result = AnalyzeWithTaxi(project);
  EXPECT_TRUE(result.ok());
  const Diagnostic* d =
      FindCode(result, analysis::codes::kTautologicalFilter);
  ASSERT_NE(d, nullptr) << result.diagnostics.ToText();
  EXPECT_NE(d->message.find("trip_id"), std::string::npos);
}

TEST(AnalyzerTest, UsefulNullFilterIsNotBP4002) {
  // passenger_count is nullable: IS NOT NULL does real work.
  PipelineProject project("p");
  ASSERT_TRUE(project
                  .AddSqlNode("a",
                              "SELECT fare FROM taxi_table "
                              "WHERE passenger_count IS NOT NULL")
                  .ok());
  AnalysisResult result = AnalyzeWithTaxi(project);
  EXPECT_TRUE(result.diagnostics.empty())
      << result.diagnostics.ToText();
}

TEST(AnalyzerTest, CartesianJoinIsBP4003) {
  PipelineProject project("p");
  ASSERT_TRUE(project
                  .AddSqlNode("a",
                              "SELECT fare AS fa FROM taxi_table")
                  .ok());
  ASSERT_TRUE(project
                  .AddSqlNode("b",
                              "SELECT fare AS fb FROM taxi_table")
                  .ok());
  ASSERT_TRUE(project
                  .AddSqlNode("c",
                              "SELECT a.fa FROM a JOIN b ON a.fa > b.fb")
                  .ok());
  AnalysisResult result = AnalyzeWithTaxi(project);
  EXPECT_FALSE(result.ok());
  const Diagnostic* d =
      FindCode(result, analysis::codes::kCartesianJoin);
  ASSERT_NE(d, nullptr) << result.diagnostics.ToText();
  EXPECT_EQ(d->node, "c");
  EXPECT_NE(d->hint.find("equi-join"), std::string::npos);
  // Re-coded, not duplicated: the generic planner bucket stays quiet.
  EXPECT_EQ(FindCode(result, analysis::codes::kTypeMismatch), nullptr);
}

TEST(AnalyzerTest, EquiJoinIsNotBP4003) {
  PipelineProject project("p");
  ASSERT_TRUE(project
                  .AddSqlNode("a",
                              "SELECT fare AS fa FROM taxi_table")
                  .ok());
  ASSERT_TRUE(project
                  .AddSqlNode("b",
                              "SELECT fare AS fb FROM taxi_table")
                  .ok());
  ASSERT_TRUE(project
                  .AddSqlNode("c",
                              "SELECT a.fa FROM a JOIN b ON a.fa = b.fb")
                  .ok());
  AnalysisResult result = AnalyzeWithTaxi(project);
  EXPECT_EQ(FindCode(result, analysis::codes::kCartesianJoin), nullptr)
      << result.diagnostics.ToText();
}

TEST(AnalyzerTest, LimitWithoutOrderByIsBP4004) {
  PipelineProject project("p");
  ASSERT_TRUE(
      project.AddSqlNode("a", "SELECT fare FROM taxi_table LIMIT 5")
          .ok());
  AnalysisResult result = AnalyzeWithTaxi(project);
  EXPECT_TRUE(result.ok());
  const Diagnostic* d =
      FindCode(result, analysis::codes::kLimitWithoutOrder);
  ASSERT_NE(d, nullptr) << result.diagnostics.ToText();
  EXPECT_NE(d->message.find("LIMIT"), std::string::npos);
}

TEST(AnalyzerTest, OrderedLimitIsNotBP4004) {
  PipelineProject project("p");
  ASSERT_TRUE(project
                  .AddSqlNode("a",
                              "SELECT fare FROM taxi_table "
                              "ORDER BY fare LIMIT 5")
                  .ok());
  AnalysisResult result = AnalyzeWithTaxi(project);
  EXPECT_TRUE(result.diagnostics.empty())
      << result.diagnostics.ToText();
}

TEST(AnalyzerTest, LossyCrossTypeComparisonIsBP4005) {
  PipelineProject project("p");
  ASSERT_TRUE(project
                  .AddSqlNode("a",
                              "SELECT fare FROM taxi_table "
                              "WHERE zone > 5")
                  .ok());
  AnalysisResult result = AnalyzeWithTaxi(project);
  EXPECT_TRUE(result.ok());
  const Diagnostic* d =
      FindCode(result, analysis::codes::kLossyComparison);
  ASSERT_NE(d, nullptr) << result.diagnostics.ToText();
  EXPECT_NE(d->hint.find("cast"), std::string::npos);
}

TEST(AnalyzerTest, TimestampStringComparisonIsNotBP4005) {
  PipelineProject project("p");
  ASSERT_TRUE(project
                  .AddSqlNode("a",
                              "SELECT fare FROM taxi_table "
                              "WHERE pickup_at >= '2019-04-01'")
                  .ok());
  AnalysisResult result = AnalyzeWithTaxi(project);
  EXPECT_TRUE(result.diagnostics.empty())
      << result.diagnostics.ToText();
}

TEST(AnalyzerTest, SubsumedConjunctIsBP4006) {
  PipelineProject project("p");
  ASSERT_TRUE(project
                  .AddSqlNode("a",
                              "SELECT fare FROM taxi_table "
                              "WHERE fare > 10 AND fare > 5")
                  .ok());
  AnalysisResult result = AnalyzeWithTaxi(project);
  EXPECT_TRUE(result.ok());
  ASSERT_NE(FindCode(result, analysis::codes::kRedundantConjunct),
            nullptr)
      << result.diagnostics.ToText();
}

TEST(AnalyzerTest, IndependentConjunctsAreNotBP4006) {
  PipelineProject project("p");
  ASSERT_TRUE(project
                  .AddSqlNode("a",
                              "SELECT fare FROM taxi_table "
                              "WHERE fare > 10 AND trip_distance > 3")
                  .ok());
  AnalysisResult result = AnalyzeWithTaxi(project);
  EXPECT_TRUE(result.diagnostics.empty())
      << result.diagnostics.ToText();
}

TEST(AnalyzerTest, DeadColumnIsBP4007) {
  PipelineProject project("p");
  ASSERT_TRUE(
      project.AddSqlNode("a", "SELECT fare, zone FROM taxi_table").ok());
  ASSERT_TRUE(project.AddSqlNode("b", "SELECT fare FROM a").ok());
  AnalysisResult result = AnalyzeWithTaxi(project);
  EXPECT_TRUE(result.ok());
  const Diagnostic* d = FindCode(result, analysis::codes::kDeadColumn);
  ASSERT_NE(d, nullptr) << result.diagnostics.ToText();
  EXPECT_EQ(d->node, "a");
  EXPECT_NE(d->message.find("zone"), std::string::npos);
  EXPECT_NE(d->hint.find("--trim"), std::string::npos);
}

TEST(AnalyzerTest, ExpectationKeepsColumnAliveForBP4007) {
  PipelineProject project("p");
  ASSERT_TRUE(
      project.AddSqlNode("a", "SELECT fare, zone FROM taxi_table").ok());
  ASSERT_TRUE(
      project.AddExpectationNode("a_expectation", "unique(zone)").ok());
  ASSERT_TRUE(project.AddSqlNode("b", "SELECT fare FROM a").ok());
  AnalysisResult result = AnalyzeWithTaxi(project);
  EXPECT_EQ(FindCode(result, analysis::codes::kDeadColumn), nullptr)
      << result.diagnostics.ToText();
}

TEST(AnalyzerTest, TerminalNodeColumnsAreNeverBP4007) {
  PipelineProject project("p");
  ASSERT_TRUE(
      project.AddSqlNode("a", "SELECT fare, zone FROM taxi_table").ok());
  AnalysisResult result = AnalyzeWithTaxi(project);
  EXPECT_TRUE(result.diagnostics.empty())
      << result.diagnostics.ToText();
}

// ------------------------------------------------------------ lineage

TEST(LineageTest, TracksReadsConsumersAndTerminals) {
  PipelineProject project("p");
  ASSERT_TRUE(
      project.AddSqlNode("a", "SELECT fare, zone FROM taxi_table").ok());
  ASSERT_TRUE(
      project.AddExpectationNode("a_expectation", "unique(zone)").ok());
  ASSERT_TRUE(project.AddSqlNode("b", "SELECT fare FROM a").ok());
  const analysis::LineageGraph graph = AnalyzeWithTaxi(project).lineage;
  ASSERT_EQ(graph.nodes().size(), 2u);

  const analysis::LineageNode& a = graph.nodes().at("a");
  EXPECT_FALSE(a.terminal);
  ASSERT_EQ(a.reads.count("taxi_table"), 1u);
  EXPECT_EQ(a.reads.at("taxi_table"),
            (std::vector<std::string>{"fare", "zone"}));
  ASSERT_EQ(a.consumers.count("fare"), 1u);
  ASSERT_EQ(a.consumers.at("fare").size(), 1u);
  EXPECT_EQ(a.consumers.at("fare")[0].kind,
            analysis::ColumnConsumer::Kind::kNode);
  EXPECT_EQ(a.consumers.at("fare")[0].name, "b");
  ASSERT_EQ(a.consumers.at("zone").size(), 1u);
  EXPECT_EQ(a.consumers.at("zone")[0].kind,
            analysis::ColumnConsumer::Kind::kExpectation);
  EXPECT_EQ(a.consumers.at("zone")[0].name, "a_expectation");
  EXPECT_TRUE(graph.DeadColumns("a").empty());

  const analysis::LineageNode& b = graph.nodes().at("b");
  EXPECT_TRUE(b.terminal);
  ASSERT_EQ(b.consumers.at("fare").size(), 1u);
  EXPECT_EQ(b.consumers.at("fare")[0].kind,
            analysis::ColumnConsumer::Kind::kTerminal);
  EXPECT_TRUE(graph.DeadColumns("b").empty());
}

TEST(LineageTest, DeadAndRequiredColumns) {
  PipelineProject project("p");
  ASSERT_TRUE(
      project.AddSqlNode("a", "SELECT fare, zone FROM taxi_table").ok());
  ASSERT_TRUE(project.AddSqlNode("b", "SELECT fare FROM a").ok());
  const analysis::LineageGraph graph = AnalyzeWithTaxi(project).lineage;
  EXPECT_EQ(graph.DeadColumns("a"),
            (std::vector<std::string>{"zone"}));
  auto required = graph.RequiredOutputColumns();
  ASSERT_EQ(required.size(), 1u);
  EXPECT_EQ(required.at("a"), (std::vector<std::string>{"fare"}));
}

TEST(LineageTest, RendersTextAndJson) {
  PipelineProject project("p");
  ASSERT_TRUE(
      project.AddSqlNode("a", "SELECT fare, zone FROM taxi_table").ok());
  ASSERT_TRUE(project.AddSqlNode("b", "SELECT fare FROM a").ok());
  const analysis::LineageGraph graph = AnalyzeWithTaxi(project).lineage;
  std::string text = graph.ToText();
  EXPECT_NE(text.find("lineage: 2 node(s)"), std::string::npos);
  EXPECT_NE(text.find("reads taxi_table: fare, zone"),
            std::string::npos);
  EXPECT_NE(text.find("column zone -> (dead)"), std::string::npos);
  EXPECT_NE(text.find("node b (terminal)"), std::string::npos);
  std::string json = graph.ToJson();
  EXPECT_NE(json.find("\"version\":1"), std::string::npos);
  EXPECT_NE(json.find("\"terminal\":true"), std::string::npos);
  EXPECT_NE(json.find("{\"kind\":\"node\",\"name\":\"b\"}"),
            std::string::npos);
  // Deterministic: rendering twice is byte-identical.
  EXPECT_EQ(json, graph.ToJson());
}

// ------------------------------------------------ front-end output pins
// What the analyzer and DAG extraction report for whole projects over
// the taxi catalog: the lineage JSON and both diagnostic renderings
// (fingerprinted, as RunnerPinTest does) and Dag::Build's execution
// order or error message verbatim. A mismatch prints the full text.

void ExpectFrontEndPin(const PipelineProject& project,
                       const std::string& expected) {
  AnalysisResult result = AnalyzeWithTaxi(project);
  auto dag = pipeline::Dag::Build(project, {"taxi_table"});
  std::string pin = StrCat(
      "lineage=", FingerprintHex(result.lineage.ToJson()),
      " text=", FingerprintHex(result.diagnostics.ToText()),
      " json=", FingerprintHex(result.diagnostics.ToJson()), " dag=",
      dag.ok() ? StrJoin(dag->execution_order(), ",")
               : dag.status().ToString());
  EXPECT_EQ(pin, expected) << result.lineage.ToJson() << "\n"
                           << result.diagnostics.ToText()
                           << result.diagnostics.ToJson();
}

TEST(FrontEndPinTest, PaperTaxiPipeline) {
  ExpectFrontEndPin(
      pipeline::MakePaperTaxiPipeline(),
      "lineage=6d7a6ff98856a84a text=82c8b0b4126de23c json=05b11789f7532aaa "
      "dag=trips,trips_expectation,pickups");
}

TEST(FrontEndPinTest, WideTaxiPipeline) {
  ExpectFrontEndPin(
      pipeline::MakeWideTaxiPipeline(6),
      "lineage=6a50fdc32de8bbba text=68b9051ea9d71a63 json=a97b908ba0898aa5 "
      "dag=base,fan_1,fan_2,fan_3,fan_4,fan_5,fan_6,base_expectation,"
      "short_trips,long_trips,trip_balance");
}

TEST(FrontEndPinTest, ExamplesTaxiPipeline) {
  auto project = cli::LoadProjectFromDir(
      std::string(BAUPLAN_EXAMPLES_DIR) + "/taxi_pipeline");
  ASSERT_TRUE(project.ok()) << project.status().ToString();
  ExpectFrontEndPin(
      *project,
      "lineage=6d7a6ff98856a84a text=82c8b0b4126de23c json=05b11789f7532aaa "
      "dag=trips,pickups,trips_expectation");
}

TEST(FrontEndPinTest, ConsumersListedBeforeProducers) {
  PipelineProject project("reversed");
  ASSERT_TRUE(project
                  .AddSqlNode("report",
                              "SELECT zone, rides FROM summary "
                              "WHERE rides > 1 ORDER BY rides DESC")
                  .ok());
  ASSERT_TRUE(
      project.AddExpectationNode("summary_expectation", "mean(rides) > 0")
          .ok());
  ASSERT_TRUE(project
                  .AddSqlNode("summary",
                              "SELECT zone, COUNT(*) AS rides, SUM(fare) "
                              "AS revenue FROM base GROUP BY zone")
                  .ok());
  ASSERT_TRUE(project
                  .AddSqlNode("base",
                              "SELECT trip_id, fare, zone, trip_distance "
                              "FROM taxi_table WHERE fare > 0")
                  .ok());
  ASSERT_TRUE(project
                  .AddSqlNode("audit",
                              "SELECT trip_id, fare FROM base "
                              "WHERE fare > 100")
                  .ok());
  ExpectFrontEndPin(
      project,
      "lineage=cf7fd7748d1d9003 text=2bf06337beaa06d7 json=0c7b08baa6254e54 "
      "dag=base,summary,audit,report,summary_expectation");
}

TEST(FrontEndPinTest, UnknownColumnWithDownstreamReader) {
  PipelineProject project("unknown_column");
  ASSERT_TRUE(
      project.AddSqlNode("a", "SELECT no_such_column FROM taxi_table")
          .ok());
  ASSERT_TRUE(project.AddSqlNode("b", "SELECT no_such_column FROM a").ok());
  ASSERT_TRUE(
      project.AddSqlNode("c", "SELECT fare, zone FROM taxi_table").ok());
  ASSERT_TRUE(project.AddSqlNode("d", "SELECT fare FROM c").ok());
  ExpectFrontEndPin(
      project,
      "lineage=0db5b2a96e634669 text=9a5d6f2da605f93f json=75368fabeef43860 "
      "dag=a,c,b,d");
}

TEST(FrontEndPinTest, TwoNodeCycle) {
  PipelineProject project("cycle");
  ASSERT_TRUE(project.AddSqlNode("a", "SELECT fare FROM b").ok());
  ASSERT_TRUE(project.AddSqlNode("b", "SELECT fare FROM a").ok());
  ASSERT_TRUE(project.AddSqlNode("c", "SELECT fare FROM a").ok());
  ASSERT_TRUE(
      project.AddSqlNode("d", "SELECT fare, zone FROM taxi_table").ok());
  ExpectFrontEndPin(
      project,
      "lineage=cedf76ec4093a1d7 text=d95f27d9fbc41e13 json=70ee0b77edead350 "
      "dag=InvalidArgument: pipeline has a dependency cycle involving: "
      "a, b, c");
}

TEST(AnalyzerTest, AnalysisResultCarriesLineage) {
  AnalysisResult result =
      AnalyzeWithTaxi(pipeline::MakePaperTaxiPipeline());
  ASSERT_EQ(result.lineage.nodes().size(), 2u);
  EXPECT_FALSE(result.lineage.nodes().at("trips").terminal);
  EXPECT_TRUE(result.lineage.nodes().at("pickups").terminal);
}

// ------------------------------------------------ diagnostic rendering

TEST(DiagnosticTest, GoldenTextRendering) {
  DiagnosticEngine engine;
  Diagnostic& d = engine.Error("BP1001", "trips", "unknown table 'tripz'");
  d.location = "trips.sql";
  d.hint = "did you mean 'trips'?";
  engine.Warning("BP1004", "x_expectation", "dead audit");
  EXPECT_EQ(engine.ToText(),
            "error[BP1001] trips (trips.sql): unknown table 'tripz'\n"
            "  hint: did you mean 'trips'?\n"
            "warning[BP1004] x_expectation: dead audit\n"
            "check: 1 error(s), 1 warning(s)\n");
}

TEST(DiagnosticTest, GoldenJsonRendering) {
  DiagnosticEngine engine;
  engine.Error("BP1002", "", "cycle \"a\"");
  EXPECT_EQ(engine.ToJson(),
            "{\"version\":1,\"errors\":1,\"warnings\":0,\"diagnostics\":["
            "{\"code\":\"BP1002\",\"severity\":\"error\",\"node\":\"\","
            "\"location\":\"\",\"message\":\"cycle \\\"a\\\"\","
            "\"hint\":\"\"}]}");
}

TEST(DiagnosticTest, JsonIsSortedByNodeLocationCodeMessage) {
  // Reported out of order on purpose: JSON renders sorted, text keeps
  // the pass emission order.
  DiagnosticEngine engine;
  Diagnostic& late = engine.Warning("BP4007", "b", "dead column");
  late.location = "b.sql";
  Diagnostic& early = engine.Error("BP1001", "a", "unknown table");
  early.location = "a.sql";
  EXPECT_EQ(engine.ToJson(),
            "{\"version\":1,\"errors\":1,\"warnings\":1,\"diagnostics\":["
            "{\"code\":\"BP1001\",\"severity\":\"error\",\"node\":\"a\","
            "\"location\":\"a.sql\",\"message\":\"unknown table\","
            "\"hint\":\"\"},"
            "{\"code\":\"BP4007\",\"severity\":\"warning\",\"node\":\"b\","
            "\"location\":\"b.sql\",\"message\":\"dead column\","
            "\"hint\":\"\"}]}");
  EXPECT_EQ(engine.ToText(),
            "warning[BP4007] b (b.sql): dead column\n"
            "error[BP1001] a (a.sql): unknown table\n"
            "check: 1 error(s), 1 warning(s)\n");
}

TEST(DiagnosticTest, PromoteWarningsToErrors) {
  DiagnosticEngine engine;
  engine.Warning("BP4004", "a", "limit without order by");
  engine.Warning("BP4007", "b", "dead column");
  engine.Error("BP1001", "c", "unknown table");
  EXPECT_FALSE(engine.has_errors() && engine.warning_count() == 0);
  engine.PromoteWarningsToErrors();
  EXPECT_EQ(engine.error_count(), 3u);
  EXPECT_EQ(engine.warning_count(), 0u);
  for (const auto& d : engine.diagnostics()) {
    EXPECT_EQ(d.severity, DiagnosticSeverity::kError);
  }
}

TEST(DiagnosticTest, CleanEngineRendersClean) {
  DiagnosticEngine engine;
  EXPECT_TRUE(engine.empty());
  EXPECT_EQ(engine.ToText(), "check: clean\n");
  EXPECT_EQ(engine.ToJson(),
            "{\"version\":1,\"errors\":0,\"warnings\":0,"
            "\"diagnostics\":[]}");
}

TEST(AnalyzerTest, EveryErrorCodeRendersInJson) {
  PipelineProject project("p");
  ASSERT_TRUE(project.AddSqlNode("a", "SELECT x FROM nowhere").ok());
  ASSERT_TRUE(project.AddSqlNode("b", "SELECT x FROM b").ok());
  ASSERT_TRUE(project.AddExpectationNode("c_expectation",
                                         "gibberish")
                  .ok());
  AnalysisResult result = AnalyzeWithTaxi(project);
  std::string json = result.diagnostics.ToJson();
  EXPECT_NE(json.find("\"BP1001\""), std::string::npos);
  EXPECT_NE(json.find("\"BP1002\""), std::string::npos);
  EXPECT_NE(json.find("\"BP1001\""), std::string::npos);
}

// -------------------------------------------------- observability wiring

TEST(AnalyzerTest, EmitsSpansAndCounters) {
  SimClock clock(0);
  observability::Tracer tracer(&clock);
  observability::MetricsRegistry metrics;
  analysis::AnalyzerOptions options;
  options.tracer = &tracer;
  options.metrics = &metrics;

  MapResolver resolver({{"taxi_table", TaxiSchema()}});
  Analyzer analyzer({"taxi_table"}, &resolver);
  AnalysisResult result =
      analyzer.Analyze(pipeline::MakePaperTaxiPipeline(), options);
  ASSERT_NE(result.root_span, 0u);

  observability::Trace trace = tracer.ExtractTrace(result.root_span);
  ASSERT_NE(trace.root(), nullptr);
  EXPECT_EQ(trace.root()->kind, observability::span_kind::kAnalysis);
  auto passes = trace.ChildrenOf(trace.root_id);
  ASSERT_EQ(passes.size(), 4u);  // structural, schema, expectation, lint
  EXPECT_EQ(passes[0]->kind, observability::span_kind::kPass);
  bool has_lint_pass = false;
  for (const auto* pass : passes) {
    if (pass->name == "lint") has_lint_pass = true;
  }
  EXPECT_TRUE(has_lint_pass);

  auto snapshot = metrics.Snapshot();
  EXPECT_EQ(snapshot.Get("analysis.runs"), 1.0);
  EXPECT_EQ(snapshot.Get("analysis.nodes"), 3.0);
  EXPECT_EQ(snapshot.Get("analysis.errors"), 0.0);
}

// --------------------------------------------------- platform surfaces

class PlatformCheckTest : public ::testing::Test {
 protected:
  void SetUp() override {
    clock_ = std::make_unique<SimClock>(1700000000000000ull);
    auto platform = core::Bauplan::Open(&store_, clock_.get());
    ASSERT_TRUE(platform.ok());
    bp_ = std::move(*platform);
    workload::TaxiGenOptions gen;
    gen.rows = 500;
    auto taxi = workload::GenerateTaxiTable(gen);
    ASSERT_TRUE(taxi.ok());
    ASSERT_TRUE(
        bp_->CreateTable("main", "taxi_table", taxi->schema()).ok());
    ASSERT_TRUE(bp_->WriteTable("main", "taxi_table", *taxi).ok());
  }

  storage::MemoryObjectStore store_;
  std::unique_ptr<SimClock> clock_;
  std::unique_ptr<core::Bauplan> bp_;
};

TEST_F(PlatformCheckTest, CheckPassesCleanProject) {
  auto result = bp_->Check(pipeline::MakePaperTaxiPipeline());
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->ok()) << result->diagnostics.ToText();
  // The check's span tree is extracted into the result.
  ASSERT_NE(result->trace.root(), nullptr);
  EXPECT_EQ(result->trace.root()->kind,
            observability::span_kind::kAnalysis);
  EXPECT_EQ(bp_->metrics_snapshot().Get("analysis.runs"), 1.0);
}

TEST_F(PlatformCheckTest, CheckReportsBrokenProject) {
  PipelineProject project("broken");
  ASSERT_TRUE(project.AddSqlNode("a", "SELECT x FROM nowhere").ok());
  auto result = bp_->Check(project);
  ASSERT_TRUE(result.ok());  // analysis ran; problems are diagnostics
  EXPECT_FALSE(result->ok());
  EXPECT_TRUE(result->diagnostics.has_errors());
}

TEST_F(PlatformCheckTest, RunRefusesBrokenProjectBeforeScheduling) {
  PipelineProject project("broken");
  ASSERT_TRUE(project.AddSqlNode("a", "SELECT x FROM nowhere").ok());
  ASSERT_TRUE(project.AddSqlNode("b", "SELECT x FROM b").ok());

  auto report = bp_->Run(project, "main");
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.status().IsFailedPrecondition());
  // The rendered diagnostics ride along in the refusal.
  EXPECT_NE(report.status().message().find("BP1001"), std::string::npos);
  EXPECT_NE(report.status().message().find("BP1002"), std::string::npos);

  // Refused before anything was scheduled: no container was acquired, no
  // run was registered, no stray branch exists.
  EXPECT_EQ(bp_->container_metrics().cold_starts, 0);
  auto runs = bp_->run_registry().ListRuns();
  ASSERT_TRUE(runs.ok());
  EXPECT_TRUE(runs->empty());
  auto branches = bp_->ListBranches();
  ASSERT_TRUE(branches.ok());
  EXPECT_EQ(branches->size(), 1u);  // just main
}

TEST_F(PlatformCheckTest, NoVerifySkipsPreflight) {
  PipelineProject project("broken");
  ASSERT_TRUE(project.AddSqlNode("a", "SELECT x FROM nowhere").ok());
  core::PipelineRunOptions options;
  options.verify = false;
  // Without the pre-flight the failure surfaces later, from DAG
  // extraction inside the registered run: the run exists and is marked
  // failed instead of being refused outright.
  auto report = bp_->Run(project, "main", options);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->merged);
  EXPECT_NE(report->status.find("failed"), std::string::npos);
  auto runs = bp_->run_registry().ListRuns();
  ASSERT_TRUE(runs.ok());
  EXPECT_EQ(runs->size(), 1u);
}

TEST_F(PlatformCheckTest, RunStillMergesCleanProject) {
  auto report = bp_->Run(pipeline::MakePaperTaxiPipeline(0.0), "main");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->merged);
  // Pre-flight ran: analysis counters registered on the platform.
  EXPECT_EQ(bp_->metrics_snapshot().Get("analysis.runs"), 1.0);
}

TEST_F(PlatformCheckTest, SecondRunOverOwnOutputsStaysClean) {
  // After a successful run, trips/pickups exist in the catalog; checking
  // the same project again must stay runnable (shadow warnings only).
  auto first = bp_->Run(pipeline::MakePaperTaxiPipeline(0.0), "main");
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->merged);
  auto check = bp_->Check(pipeline::MakePaperTaxiPipeline(0.0));
  ASSERT_TRUE(check.ok());
  EXPECT_TRUE(check->ok()) << check->diagnostics.ToText();
  EXPECT_TRUE(
      HasCode(*check, analysis::codes::kDuplicateOutput));
  auto second = bp_->Run(pipeline::MakePaperTaxiPipeline(0.0), "main");
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_TRUE(second->merged);
}

TEST_F(PlatformCheckTest, ExamplesTaxiPipelineChecksClean) {
  auto project =
      cli::LoadProjectFromDir(std::string(BAUPLAN_EXAMPLES_DIR) +
                              "/taxi_pipeline");
  ASSERT_TRUE(project.ok()) << project.status().ToString();
  auto result = bp_->Check(*project);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->ok()) << result->diagnostics.ToText();
  auto report = bp_->Run(*project, "main");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->merged);
}

TEST_F(PlatformCheckTest, BrokenTripleReportsAllThreeCodes) {
  // The acceptance scenario: unknown table + cycle + expectation over a
  // missing column, all reported in one pass.
  PipelineProject project("triple");
  ASSERT_TRUE(project.AddSqlNode("a", "SELECT fare FROM missing").ok());
  ASSERT_TRUE(project.AddSqlNode("b", "SELECT x FROM b").ok());
  ASSERT_TRUE(
      project.AddSqlNode("c", "SELECT fare FROM taxi_table").ok());
  ASSERT_TRUE(project.AddExpectationNode("c_expectation",
                                         "mean(no_such_column) > 1")
                  .ok());
  auto result = bp_->Check(project);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->ok());
  EXPECT_TRUE(HasCode(*result, analysis::codes::kUnknownTable));
  EXPECT_TRUE(HasCode(*result, analysis::codes::kDependencyCycle));
  EXPECT_TRUE(
      HasCode(*result, analysis::codes::kExpectationUnknownColumn));
  EXPECT_EQ(result->diagnostics.error_count(), 3u);
}

}  // namespace
}  // namespace bauplan
