#ifndef BAUPLAN_SQL_AST_H_
#define BAUPLAN_SQL_AST_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "columnar/type.h"
#include "columnar/value.h"

namespace bauplan::sql {

// ------------------------------------------------------------ expressions

enum class ExprKind {
  kColumnRef,
  kLiteral,
  kStar,
  kBinary,
  kUnary,
  kFunction,
  kIsNull,
  kBetween,
  kInList,
  kLike,
  kCast,
  kCase,
};

enum class BinaryOp {
  kAdd,
  kSub,
  kMul,
  kDiv,
  kMod,
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kAnd,
  kOr,
};

enum class UnaryOp { kNot, kNegate };

std::string_view BinaryOpToString(BinaryOp op);

struct Expr;
using ExprPtr = std::shared_ptr<Expr>;

/// One SQL expression node. A closed (non-polymorphic) representation keeps
/// tree rewriting in the optimizer simple.
struct Expr {
  ExprKind kind;

  // kColumnRef
  std::string table_qualifier;  // optional "t" in t.col
  std::string column_name;

  // kLiteral
  columnar::Value literal;

  // kBinary / kUnary
  BinaryOp binary_op = BinaryOp::kEq;
  UnaryOp unary_op = UnaryOp::kNot;
  ExprPtr left;
  ExprPtr right;

  // kFunction: aggregate (COUNT/SUM/AVG/MIN/MAX) or scalar (LOWER/UPPER/
  // LENGTH/ABS/COALESCE). Uppercased name. star=true for COUNT(*).
  std::string function_name;
  std::vector<ExprPtr> args;
  bool distinct = false;
  bool star_arg = false;

  // kIsNull / kBetween / kInList / kLike share `left` as the operand.
  bool negated = false;       // IS NOT NULL / NOT BETWEEN / NOT IN / NOT LIKE
  ExprPtr between_low;        // kBetween
  ExprPtr between_high;       // kBetween
  std::vector<ExprPtr> list;  // kInList
  std::string pattern;        // kLike

  // kCast
  columnar::TypeId cast_type = columnar::TypeId::kInt64;

  // kCase: WHEN list[2i] THEN list[2i+1], optional ELSE in `right`.
  // (list holds condition/result pairs.)

  /// Renders the expression back to SQL-ish text (for plans and errors).
  std::string ToString() const;
};

ExprPtr MakeColumnRef(std::string table, std::string column);
ExprPtr MakeLiteral(columnar::Value value);
ExprPtr MakeStar();
ExprPtr MakeBinary(BinaryOp op, ExprPtr left, ExprPtr right);
ExprPtr MakeUnary(UnaryOp op, ExprPtr operand);
ExprPtr MakeFunction(std::string name, std::vector<ExprPtr> args,
                     bool distinct = false, bool star_arg = false);

/// Deep-copies an expression tree (plans own their expressions so the
/// optimizer can rewrite them without mutating the AST).
ExprPtr CloneExpr(const ExprPtr& expr);

/// Deep-copies an expression tree pre-order, offering every node to
/// `substitute` first: a non-null result takes the place of that node and
/// its whole subtree; null copies the node and continues into its
/// children. An empty `substitute` makes this CloneExpr.
ExprPtr CloneExprWith(
    const ExprPtr& expr,
    const std::function<ExprPtr(const Expr&)>& substitute);

/// True when the expression is or contains an aggregate function call.
bool ContainsAggregate(const Expr& expr);

/// Collects the names of all columns referenced by `expr` into `out`
/// (qualified refs keep only the column name).
void CollectColumnRefs(const Expr& expr, std::vector<std::string>* out);

// ------------------------------------------------------------- statements

/// One item of the SELECT list: an expression plus optional alias.
struct SelectItem {
  ExprPtr expr;
  std::string alias;  // empty = derive from expression
};

enum class JoinType { kInner, kLeft };

struct SelectStatement;

/// FROM clause item: a base table or a parenthesized subquery (derived
/// table), optionally followed by joins.
struct TableRef {
  std::string table_name;
  std::string alias;  // empty = table_name
  /// Non-null for derived tables: FROM (SELECT ...) alias.
  std::shared_ptr<SelectStatement> subquery;
};

struct JoinClause {
  JoinType type = JoinType::kInner;
  TableRef table;
  ExprPtr on;
};

struct OrderKey {
  ExprPtr expr;
  bool ascending = true;
};

/// A parsed SELECT statement (the only statement kind the engine runs;
/// writes go through the table/catalog APIs, matching the paper's
/// one-query-one-artifact model).
struct SelectStatement {
  /// SELECT DISTINCT: deduplicate output rows.
  bool distinct = false;
  std::vector<SelectItem> items;
  TableRef from;
  std::vector<JoinClause> joins;
  ExprPtr where;            // may be null
  std::vector<ExprPtr> group_by;
  ExprPtr having;           // may be null
  std::vector<OrderKey> order_by;
  int64_t limit = -1;       // -1 = no limit
  /// UNION ALL continuation; non-null chains further SELECTs. Unioned
  /// selects cannot carry ORDER BY/LIMIT themselves — wrap the union in
  /// a derived table to sort or truncate it.
  std::shared_ptr<SelectStatement> union_next;

  /// All table names referenced in FROM/JOIN, in appearance order. The
  /// pipeline layer uses this for implicit DAG extraction (paper 4.4.1).
  std::vector<std::string> ReferencedTables() const;
};

}  // namespace bauplan::sql

#endif  // BAUPLAN_SQL_AST_H_
