#include "pipeline/project.h"

#include "common/hash.h"
#include "common/strings.h"

namespace bauplan::pipeline {

namespace {
constexpr std::string_view kExpectationSuffix = "_expectation";
}  // namespace

Result<std::string> PipelineNode::ExpectationTarget() const {
  if (kind != NodeKind::kExpectation) {
    return Status::FailedPrecondition(
        StrCat("node '", name, "' is not an expectation"));
  }
  if (!EndsWith(name, kExpectationSuffix) ||
      name.size() == kExpectationSuffix.size()) {
    return Status::InvalidArgument(
        StrCat("expectation node '", name,
               "' must be named '<table>_expectation'"));
  }
  return name.substr(0, name.size() - kExpectationSuffix.size());
}

Status PipelineProject::AddNode(PipelineNode node) {
  if (node.name.empty()) {
    return Status::InvalidArgument("node name must not be empty");
  }
  if (FindNode(node.name) != nullptr) {
    return Status::AlreadyExists(
        StrCat("node '", node.name, "' already in project"));
  }
  nodes_.push_back(std::move(node));
  return Status::OK();
}

Status PipelineProject::AddSqlNode(
    const std::string& name, const std::string& sql,
    const expectations::RequirementSet& requirements) {
  PipelineNode node;
  node.name = name;
  node.kind = NodeKind::kSqlModel;
  node.code = sql;
  node.requirements = requirements;
  return AddNode(std::move(node));
}

Status PipelineProject::AddExpectationNode(
    const std::string& name, const std::string& dsl,
    const expectations::RequirementSet& requirements) {
  PipelineNode node;
  node.name = name;
  node.kind = NodeKind::kExpectation;
  node.code = dsl;
  node.requirements = requirements;
  BAUPLAN_RETURN_NOT_OK(node.ExpectationTarget().status());
  return AddNode(std::move(node));
}

const PipelineNode* PipelineProject::FindNode(
    const std::string& name) const {
  for (const auto& node : nodes_) {
    if (node.name == name) return &node;
  }
  return nullptr;
}

Bytes PipelineProject::Snapshot() const {
  BinaryWriter w;
  w.PutString(name_);
  w.PutU32(static_cast<uint32_t>(nodes_.size()));
  for (const auto& node : nodes_) {
    w.PutString(node.name);
    w.PutU8(static_cast<uint8_t>(node.kind));
    w.PutString(node.code);
    w.PutString(node.requirements.ToString());
  }
  return w.TakeBuffer();
}

Result<PipelineProject> PipelineProject::FromSnapshot(const Bytes& bytes) {
  BinaryReader r(bytes);
  BAUPLAN_ASSIGN_OR_RETURN(std::string name, r.GetString());
  PipelineProject project(std::move(name));
  BAUPLAN_ASSIGN_OR_RETURN(uint32_t count, r.GetCount());
  for (uint32_t i = 0; i < count; ++i) {
    PipelineNode node;
    BAUPLAN_ASSIGN_OR_RETURN(node.name, r.GetString());
    BAUPLAN_ASSIGN_OR_RETURN(uint8_t kind, r.GetU8());
    if (kind > static_cast<uint8_t>(NodeKind::kExpectation)) {
      return Status::IOError("invalid node kind in snapshot");
    }
    node.kind = static_cast<NodeKind>(kind);
    BAUPLAN_ASSIGN_OR_RETURN(node.code, r.GetString());
    BAUPLAN_ASSIGN_OR_RETURN(std::string reqs, r.GetString());
    BAUPLAN_ASSIGN_OR_RETURN(node.requirements,
                             expectations::RequirementSet::Parse(reqs));
    BAUPLAN_RETURN_NOT_OK(project.AddNode(std::move(node)));
  }
  return project;
}

std::string PipelineProject::Fingerprint() const {
  Bytes snapshot = Snapshot();
  return FingerprintHex(std::string_view(
      reinterpret_cast<const char*>(snapshot.data()), snapshot.size()));
}

PipelineProject MakePaperTaxiPipeline(double expectation_threshold) {
  PipelineProject project("nyc_taxi");
  // Step 1 (trips): extract columns for the target window.
  Status st = project.AddSqlNode(
      "trips",
      "SELECT pickup_location_id, passenger_count AS count, "
      "dropoff_location_id FROM taxi_table "
      "WHERE pickup_at >= '2019-04-01'");
  // Step 2 (trips_expectation): audit the artifact.
  if (st.ok()) {
    auto reqs =
        expectations::RequirementSet::Parse("pandas==2.0.0").ValueOrDie();
    char dsl[64];
    std::snprintf(dsl, sizeof(dsl), "mean(count) > %g",
                  expectation_threshold);
    st = project.AddExpectationNode("trips_expectation", dsl, reqs);
  }
  // Step 3 (pickups): aggregate and sort.
  if (st.ok()) {
    st = project.AddSqlNode(
        "pickups",
        "SELECT pickup_location_id, dropoff_location_id, COUNT(*) AS "
        "counts FROM trips GROUP BY pickup_location_id, "
        "dropoff_location_id ORDER BY counts DESC");
  }
  // The fixed pipeline above cannot fail to assemble.
  (void)st;
  return project;
}

PipelineProject MakeWideTaxiPipeline(int fan_out) {
  PipelineProject project("nyc_taxi_wide");
  // Diamond: base feeds two disjoint slices that re-join downstream.
  Status st = project.AddSqlNode(
      "base",
      "SELECT pickup_location_id, dropoff_location_id, "
      "passenger_count AS count, trip_distance, fare FROM taxi_table "
      "WHERE pickup_at >= '2019-01-01'");
  if (st.ok()) {
    auto reqs =
        expectations::RequirementSet::Parse("pandas==2.0.0").ValueOrDie();
    st = project.AddExpectationNode("base_expectation", "mean(count) > 0",
                                    reqs);
  }
  if (st.ok()) {
    st = project.AddSqlNode(
        "short_trips",
        "SELECT pickup_location_id, COUNT(*) AS rides, SUM(fare) AS "
        "revenue FROM base WHERE trip_distance < 2.5 "
        "GROUP BY pickup_location_id");
  }
  if (st.ok()) {
    st = project.AddSqlNode(
        "long_trips",
        "SELECT pickup_location_id, COUNT(*) AS rides, SUM(fare) AS "
        "revenue FROM base WHERE trip_distance >= 2.5 "
        "GROUP BY pickup_location_id");
  }
  if (st.ok()) {
    st = project.AddSqlNode(
        "trip_balance",
        "SELECT short_trips.pickup_location_id, "
        "short_trips.rides AS short_rides, "
        "long_trips.rides AS long_rides FROM short_trips "
        "JOIN long_trips ON short_trips.pickup_location_id = "
        "long_trips.pickup_location_id "
        "ORDER BY short_trips.pickup_location_id");
  }
  // Fan-out: mutually independent rollups straight off the source table
  // (no edges between them, so a wavefront runs them all at once).
  for (int i = 1; st.ok() && i <= fan_out; ++i) {
    st = project.AddSqlNode(
        StrCat("fan_", i),
        StrCat("SELECT dropoff_location_id, COUNT(*) AS rides_", i,
               " FROM taxi_table WHERE passenger_count >= ", i,
               " GROUP BY dropoff_location_id ORDER BY "
               "dropoff_location_id"));
  }
  // The fixed pipeline above cannot fail to assemble.
  (void)st;
  return project;
}

}  // namespace bauplan::pipeline
