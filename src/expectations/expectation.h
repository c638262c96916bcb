#ifndef BAUPLAN_EXPECTATIONS_EXPECTATION_H_
#define BAUPLAN_EXPECTATIONS_EXPECTATION_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "columnar/table.h"
#include "common/result.h"

namespace bauplan::expectations {

/// Outcome of evaluating one expectation against a table.
struct ExpectationOutcome {
  bool passed = false;
  /// Human-readable evidence ("mean(count) = 3.2, expected > 10").
  std::string details;
};

/// A statistical check over a produced artifact: the audit step of the
/// paper's transform-audit-write pattern. Expectations play the role of
/// integration tests for data (section 4.1 fn. 7): they gate whether a
/// run's outputs are committed to its branch at all.
class Expectation {
 public:
  using CheckFn =
      std::function<Result<ExpectationOutcome>(const columnar::Table&)>;

  Expectation(std::string name, CheckFn fn)
      : name_(std::move(name)), fn_(std::move(fn)) {}

  const std::string& name() const { return name_; }

  Result<ExpectationOutcome> Check(const columnar::Table& table) const {
    return fn_(table);
  }

 private:
  std::string name_;
  CheckFn fn_;
};

// ----------------------------------------------------- built-in factories

/// mean(column) > threshold — the paper's appendix Step 2.
Expectation ExpectMeanGreaterThan(const std::string& column,
                                  double threshold);

/// lo <= mean(column) <= hi.
Expectation ExpectMeanBetween(const std::string& column, double lo,
                              double hi);

/// column has no null values.
Expectation ExpectNoNulls(const std::string& column);

/// column values are pairwise distinct (nulls ignored).
Expectation ExpectUnique(const std::string& column);

/// lo <= row count <= hi.
Expectation ExpectRowCountBetween(int64_t lo, int64_t hi);

/// every non-null value of column lies in [lo, hi].
Expectation ExpectValuesBetween(const std::string& column, double lo,
                                double hi);

// ------------------------------------------------------------ DSL parsing

/// Which built-in check an expectation DSL line names.
enum class ExpectationKind {
  kMeanGreaterThan,
  kMeanBetween,
  kNotNull,
  kUnique,
  kRowCountBetween,
  kValuesBetween,
};

/// The statically-parsed structure of one expectation DSL line — what
/// the code-intelligence analyzer inspects to validate the referenced
/// column and its type without building (or running) the check itself.
struct ExpectationSpec {
  ExpectationKind kind = ExpectationKind::kNotNull;
  /// The audited column; empty for row_count.
  std::string column;
  /// kMeanGreaterThan only.
  double threshold = 0;
  /// The between kinds only.
  double lo = 0;
  double hi = 0;

  /// True for checks that average or range-compare values (mean, values):
  /// the column must hold a numeric type.
  bool RequiresNumericColumn() const {
    return kind == ExpectationKind::kMeanGreaterThan ||
           kind == ExpectationKind::kMeanBetween ||
           kind == ExpectationKind::kValuesBetween;
  }
};

/// Parses the tiny expectation DSL used by pipeline manifests:
///   mean(col) > 10        | mean(col) between 1 and 5
///   not_null(col)         | unique(col)
///   row_count between 1 and 100
///   values(col) between 0 and 1
/// InvalidArgument on anything else.
Result<ExpectationSpec> ParseExpectationSpec(std::string_view text);

/// Instantiates the runtime check a spec describes.
Expectation MakeExpectation(const ExpectationSpec& spec);

/// ParseExpectationSpec + MakeExpectation in one step (the pipeline
/// runner's path).
Result<Expectation> ParseExpectation(std::string_view text);

}  // namespace bauplan::expectations

#endif  // BAUPLAN_EXPECTATIONS_EXPECTATION_H_
