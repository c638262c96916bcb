#include "sql/ast.h"

#include "common/strings.h"

namespace bauplan::sql {

std::string_view BinaryOpToString(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd:
      return "+";
    case BinaryOp::kSub:
      return "-";
    case BinaryOp::kMul:
      return "*";
    case BinaryOp::kDiv:
      return "/";
    case BinaryOp::kMod:
      return "%";
    case BinaryOp::kEq:
      return "=";
    case BinaryOp::kNe:
      return "!=";
    case BinaryOp::kLt:
      return "<";
    case BinaryOp::kLe:
      return "<=";
    case BinaryOp::kGt:
      return ">";
    case BinaryOp::kGe:
      return ">=";
    case BinaryOp::kAnd:
      return "AND";
    case BinaryOp::kOr:
      return "OR";
  }
  return "?";
}

std::string Expr::ToString() const {
  switch (kind) {
    case ExprKind::kColumnRef:
      return table_qualifier.empty()
                 ? column_name
                 : StrCat(table_qualifier, ".", column_name);
    case ExprKind::kLiteral:
      return literal.type() == columnar::TypeId::kString ||
                     literal.type() == columnar::TypeId::kTimestamp
                 ? (literal.is_null() ? "NULL"
                                      : StrCat("'", literal.ToString(), "'"))
                 : literal.ToString();
    case ExprKind::kStar:
      return "*";
    case ExprKind::kBinary:
      return StrCat("(", left->ToString(), " ", BinaryOpToString(binary_op),
                    " ", right->ToString(), ")");
    case ExprKind::kUnary:
      return unary_op == UnaryOp::kNot ? StrCat("NOT ", left->ToString())
                                       : StrCat("-", left->ToString());
    case ExprKind::kFunction: {
      std::string inner;
      if (star_arg) {
        inner = "*";
      } else {
        for (size_t i = 0; i < args.size(); ++i) {
          if (i > 0) inner += ", ";
          inner += args[i]->ToString();
        }
      }
      return StrCat(function_name, "(", distinct ? "DISTINCT " : "", inner,
                    ")");
    }
    case ExprKind::kIsNull:
      return StrCat(left->ToString(), negated ? " IS NOT NULL"
                                              : " IS NULL");
    case ExprKind::kBetween:
      return StrCat(left->ToString(), negated ? " NOT BETWEEN " : " BETWEEN ",
                    between_low->ToString(), " AND ",
                    between_high->ToString());
    case ExprKind::kInList: {
      std::string inner;
      for (size_t i = 0; i < list.size(); ++i) {
        if (i > 0) inner += ", ";
        inner += list[i]->ToString();
      }
      return StrCat(left->ToString(), negated ? " NOT IN (" : " IN (", inner,
                    ")");
    }
    case ExprKind::kLike:
      return StrCat(left->ToString(), negated ? " NOT LIKE '" : " LIKE '",
                    pattern, "'");
    case ExprKind::kCast:
      return StrCat("CAST(", left->ToString(), " AS ",
                    columnar::TypeIdToString(cast_type), ")");
    case ExprKind::kCase: {
      std::string out = "CASE";
      for (size_t i = 0; i + 1 < list.size(); i += 2) {
        out += StrCat(" WHEN ", list[i]->ToString(), " THEN ",
                      list[i + 1]->ToString());
      }
      if (right != nullptr) out += StrCat(" ELSE ", right->ToString());
      out += " END";
      return out;
    }
  }
  return "?";
}

ExprPtr MakeColumnRef(std::string table, std::string column) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kColumnRef;
  e->table_qualifier = std::move(table);
  e->column_name = std::move(column);
  return e;
}

ExprPtr MakeLiteral(columnar::Value value) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kLiteral;
  e->literal = std::move(value);
  return e;
}

ExprPtr MakeStar() {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kStar;
  return e;
}

ExprPtr MakeBinary(BinaryOp op, ExprPtr left, ExprPtr right) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kBinary;
  e->binary_op = op;
  e->left = std::move(left);
  e->right = std::move(right);
  return e;
}

ExprPtr MakeUnary(UnaryOp op, ExprPtr operand) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kUnary;
  e->unary_op = op;
  e->left = std::move(operand);
  return e;
}

ExprPtr MakeFunction(std::string name, std::vector<ExprPtr> args,
                     bool distinct, bool star_arg) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kFunction;
  e->function_name = std::move(name);
  e->args = std::move(args);
  e->distinct = distinct;
  e->star_arg = star_arg;
  return e;
}

ExprPtr CloneExpr(const ExprPtr& expr) { return CloneExprWith(expr, nullptr); }

ExprPtr CloneExprWith(
    const ExprPtr& expr,
    const std::function<ExprPtr(const Expr&)>& substitute) {
  if (expr == nullptr) return nullptr;
  if (substitute) {
    if (ExprPtr replacement = substitute(*expr)) return replacement;
  }
  auto copy = std::make_shared<Expr>(*expr);
  copy->left = CloneExprWith(expr->left, substitute);
  copy->right = CloneExprWith(expr->right, substitute);
  copy->between_low = CloneExprWith(expr->between_low, substitute);
  copy->between_high = CloneExprWith(expr->between_high, substitute);
  for (auto& a : copy->args) a = CloneExprWith(a, substitute);
  for (auto& e : copy->list) e = CloneExprWith(e, substitute);
  return copy;
}

namespace {

bool IsAggregateName(const std::string& name) {
  return name == "COUNT" || name == "SUM" || name == "AVG" ||
         name == "MIN" || name == "MAX";
}

}  // namespace

bool ContainsAggregate(const Expr& expr) {
  if (expr.kind == ExprKind::kFunction &&
      IsAggregateName(expr.function_name)) {
    return true;
  }
  auto check = [](const ExprPtr& e) {
    return e != nullptr && ContainsAggregate(*e);
  };
  if (check(expr.left) || check(expr.right) || check(expr.between_low) ||
      check(expr.between_high)) {
    return true;
  }
  for (const auto& a : expr.args) {
    if (check(a)) return true;
  }
  for (const auto& e : expr.list) {
    if (check(e)) return true;
  }
  return false;
}

void CollectColumnRefs(const Expr& expr, std::vector<std::string>* out) {
  if (expr.kind == ExprKind::kColumnRef) {
    out->push_back(expr.column_name);
  }
  auto walk = [out](const ExprPtr& e) {
    if (e != nullptr) CollectColumnRefs(*e, out);
  };
  walk(expr.left);
  walk(expr.right);
  walk(expr.between_low);
  walk(expr.between_high);
  for (const auto& a : expr.args) walk(a);
  for (const auto& e : expr.list) walk(e);
}

namespace {

void CollectRefs(const TableRef& ref, std::vector<std::string>* out) {
  if (ref.subquery != nullptr) {
    for (const auto& inner : ref.subquery->ReferencedTables()) {
      out->push_back(inner);
    }
  } else if (!ref.table_name.empty()) {
    out->push_back(ref.table_name);
  }
}

}  // namespace

std::vector<std::string> SelectStatement::ReferencedTables() const {
  std::vector<std::string> out;
  CollectRefs(from, &out);
  for (const auto& join : joins) CollectRefs(join.table, &out);
  if (union_next != nullptr) {
    for (const auto& t : union_next->ReferencedTables()) out.push_back(t);
  }
  return out;
}

}  // namespace bauplan::sql
