#include "sql/planner.h"

#include <functional>
#include <set>

#include "common/strings.h"

namespace bauplan::sql {

using columnar::Field;
using columnar::Schema;
using columnar::TypeId;

namespace {

// ------------------------------------------------------- name resolution

/// Resolves a (qualifier, name) reference against a plan output schema,
/// returning the exact output field name to use.
Result<std::string> ResolveColumn(const Schema& schema,
                                  const std::string& qualifier,
                                  const std::string& name) {
  if (!qualifier.empty()) {
    std::string qualified = StrCat(qualifier, ".", name);
    if (schema.HasField(qualified)) return qualified;
    // Single-table scope keeps plain names; accept the qualifier as the
    // table alias when the plain name exists unambiguously.
    if (schema.HasField(name)) return name;
    return Status::NotFound(
        StrCat("column '", qualified, "' not found in ", schema.ToString()));
  }
  if (schema.HasField(name)) return name;
  // Unqualified reference into a qualified (join) schema: unique suffix.
  std::string found;
  std::string suffix = StrCat(".", name);
  for (const auto& field : schema.fields()) {
    if (EndsWith(field.name, suffix)) {
      if (!found.empty()) {
        return Status::InvalidArgument(
            StrCat("column reference '", name, "' is ambiguous (", found,
                   " vs ", field.name, ")"));
      }
      found = field.name;
    }
  }
  if (found.empty()) {
    return Status::NotFound(
        StrCat("column '", name, "' not found in ", schema.ToString()));
  }
  return found;
}

/// Rewrites all column refs in `expr` (in place) to resolved output names.
Status BindExpr(Expr* expr, const Schema& schema) {
  if (expr == nullptr) return Status::OK();
  if (expr->kind == ExprKind::kColumnRef) {
    BAUPLAN_ASSIGN_OR_RETURN(
        std::string resolved,
        ResolveColumn(schema, expr->table_qualifier, expr->column_name));
    expr->column_name = std::move(resolved);
    expr->table_qualifier.clear();
    return Status::OK();
  }
  BAUPLAN_RETURN_NOT_OK(BindExpr(expr->left.get(), schema));
  BAUPLAN_RETURN_NOT_OK(BindExpr(expr->right.get(), schema));
  BAUPLAN_RETURN_NOT_OK(BindExpr(expr->between_low.get(), schema));
  BAUPLAN_RETURN_NOT_OK(BindExpr(expr->between_high.get(), schema));
  for (auto& arg : expr->args) {
    BAUPLAN_RETURN_NOT_OK(BindExpr(arg.get(), schema));
  }
  for (auto& item : expr->list) {
    BAUPLAN_RETURN_NOT_OK(BindExpr(item.get(), schema));
  }
  return Status::OK();
}

/// Derives an output column name for an unaliased select expression.
std::string DeriveName(const Expr& expr, size_t index) {
  if (expr.kind == ExprKind::kColumnRef) return expr.column_name;
  if (expr.kind == ExprKind::kFunction) {
    return ToLower(expr.function_name);
  }
  return StrCat("col", index);
}

bool IsAggregateCall(const Expr& expr) {
  return expr.kind == ExprKind::kFunction &&
         (expr.function_name == "COUNT" || expr.function_name == "SUM" ||
          expr.function_name == "AVG" || expr.function_name == "MIN" ||
          expr.function_name == "MAX");
}

/// Collects every aggregate call inside `expr` into `out` (deduplicated by
/// rendered text).
void CollectAggregates(const ExprPtr& expr, std::vector<ExprPtr>* out,
                       std::set<std::string>* seen) {
  if (expr == nullptr) return;
  if (IsAggregateCall(*expr)) {
    std::string key = expr->ToString();
    if (seen->insert(key).second) out->push_back(expr);
    return;  // aggregates do not nest
  }
  CollectAggregates(expr->left, out, seen);
  CollectAggregates(expr->right, out, seen);
  CollectAggregates(expr->between_low, out, seen);
  CollectAggregates(expr->between_high, out, seen);
  for (const auto& a : expr->args) CollectAggregates(a, out, seen);
  for (const auto& e : expr->list) CollectAggregates(e, out, seen);
}

/// Replaces aggregate calls and whole group-by expressions inside `expr`
/// with column refs into the Aggregate node's output (matched by rendered
/// text). Returns the rewritten tree.
ExprPtr RewriteOverAggregate(
    const ExprPtr& expr,
    const std::vector<std::pair<std::string, std::string>>& replacements) {
  return CloneExprWith(expr, [&](const Expr& node) -> ExprPtr {
    std::string key = node.ToString();
    for (const auto& [text, output] : replacements) {
      if (key == text) return MakeColumnRef("", output);
    }
    return nullptr;
  });
}

/// Verifies a post-aggregation expression references only aggregate
/// outputs / group keys (all rewritten to column refs that exist in
/// `schema` by now).
Status CheckAggregateScope(const Expr& expr, const Schema& schema) {
  if (expr.kind == ExprKind::kColumnRef) {
    if (!schema.HasField(expr.column_name)) {
      return Status::InvalidArgument(
          StrCat("column '", expr.column_name,
                 "' must appear in GROUP BY or inside an aggregate"));
    }
    return Status::OK();
  }
  auto check = [&schema](const ExprPtr& e) {
    return e == nullptr ? Status::OK() : CheckAggregateScope(*e, schema);
  };
  BAUPLAN_RETURN_NOT_OK(check(expr.left));
  BAUPLAN_RETURN_NOT_OK(check(expr.right));
  BAUPLAN_RETURN_NOT_OK(check(expr.between_low));
  BAUPLAN_RETURN_NOT_OK(check(expr.between_high));
  for (const auto& a : expr.args) BAUPLAN_RETURN_NOT_OK(check(a));
  for (const auto& e : expr.list) BAUPLAN_RETURN_NOT_OK(check(e));
  return Status::OK();
}

// ----------------------------------------------------------- from clause

/// Plans the FROM clause: a scan, or a left-deep chain of joins whose
/// output columns are "alias.column"-qualified.
/// Plans one FROM item: a scan node for a base table, or the recursively
/// planned subtree for a derived table.
Result<PlanPtr> PlanTableRef(const TableRef& ref,
                             const SchemaResolver& resolver) {
  if (ref.subquery != nullptr) {
    return PlanQuery(*ref.subquery, resolver);
  }
  BAUPLAN_ASSIGN_OR_RETURN(Schema schema,
                           resolver.GetTableSchema(ref.table_name));
  auto scan = MakePlanNode(PlanKind::kScan);
  scan->table_name = ref.table_name;
  scan->table_alias = ref.alias;
  scan->schema = std::move(schema);
  return scan;
}

Result<PlanPtr> PlanFrom(const SelectStatement& stmt,
                         const SchemaResolver& resolver) {
  BAUPLAN_ASSIGN_OR_RETURN(PlanPtr base, PlanTableRef(stmt.from, resolver));
  const Schema base_schema = base->schema;
  if (stmt.joins.empty()) return base;

  // Qualify the base scan's output for the join scope.
  auto qualify = [](const Schema& schema, const std::string& alias) {
    std::vector<Field> fields;
    for (const auto& f : schema.fields()) {
      fields.push_back({StrCat(alias, ".", f.name), f.type, f.nullable});
    }
    return Schema(std::move(fields));
  };

  PlanPtr left = base;
  Schema left_schema = qualify(base_schema, stmt.from.alias);
  // The executor renames scan output to qualified names via a Project.
  {
    auto project = MakePlanNode(PlanKind::kProject);
    project->children = {left};
    for (int i = 0; i < base_schema.num_fields(); ++i) {
      project->expressions.push_back(
          MakeColumnRef("", base_schema.field(i).name));
      project->output_names.push_back(left_schema.field(i).name);
    }
    project->schema = left_schema;
    left = project;
  }

  for (const auto& join : stmt.joins) {
    BAUPLAN_ASSIGN_OR_RETURN(PlanPtr right_base,
                             PlanTableRef(join.table, resolver));
    const Schema right_schema = right_base->schema;

    Schema right_qualified = qualify(right_schema, join.table.alias);
    auto right_project = MakePlanNode(PlanKind::kProject);
    right_project->children = {right_base};
    for (int i = 0; i < right_schema.num_fields(); ++i) {
      right_project->expressions.push_back(
          MakeColumnRef("", right_schema.field(i).name));
      right_project->output_names.push_back(right_qualified.field(i).name);
    }
    right_project->schema = right_qualified;

    // Combined scope.
    std::vector<Field> combined = left_schema.fields();
    for (const auto& f : right_qualified.fields()) {
      Field copy = f;
      if (join.type == JoinType::kLeft) copy.nullable = true;
      combined.push_back(copy);
    }
    Schema combined_schema(std::move(combined));

    // Bind ON against the combined scope, then split equi-keys.
    ExprPtr on = CloneExpr(join.on);
    BAUPLAN_RETURN_NOT_OK(BindExpr(on.get(), combined_schema));

    auto join_node = MakePlanNode(PlanKind::kJoin);
    join_node->join_type = join.type;
    join_node->children = {left, right_project};
    join_node->schema = combined_schema;

    // Decompose the ON conjunction into equi-keys (one side referencing
    // only left columns, the other only right) and a residual.
    std::vector<ExprPtr> conjuncts;
    std::function<void(const ExprPtr&)> split = [&](const ExprPtr& e) {
      if (e != nullptr && e->kind == ExprKind::kBinary &&
          e->binary_op == BinaryOp::kAnd) {
        split(e->left);
        split(e->right);
      } else if (e != nullptr) {
        conjuncts.push_back(e);
      }
    };
    split(on);

    auto refs_only = [](const Expr& e, const Schema& schema) {
      std::vector<std::string> cols;
      CollectColumnRefs(e, &cols);
      for (const auto& c : cols) {
        if (!schema.HasField(c)) return false;
      }
      return !cols.empty();
    };

    ExprPtr residual;
    for (const auto& c : conjuncts) {
      bool is_key = false;
      if (c->kind == ExprKind::kBinary && c->binary_op == BinaryOp::kEq) {
        if (refs_only(*c->left, left_schema) &&
            refs_only(*c->right, right_qualified)) {
          join_node->left_keys.push_back(c->left);
          join_node->right_keys.push_back(c->right);
          is_key = true;
        } else if (refs_only(*c->left, right_qualified) &&
                   refs_only(*c->right, left_schema)) {
          join_node->left_keys.push_back(c->right);
          join_node->right_keys.push_back(c->left);
          is_key = true;
        }
      }
      if (!is_key) {
        residual = residual == nullptr
                       ? c
                       : MakeBinary(BinaryOp::kAnd, residual, c);
      }
    }
    if (join_node->left_keys.empty()) {
      return Status::InvalidArgument(
          StrCat("JOIN ON must contain at least one equality between the ",
                 "two sides: ", join.on->ToString()));
    }
    join_node->residual = residual;

    left = join_node;
    left_schema = combined_schema;
  }
  return left;
}

}  // namespace

// -------------------------------------------------------- type inference

Result<TypeId> InferExprType(const Expr& expr, const Schema& schema) {
  switch (expr.kind) {
    case ExprKind::kColumnRef: {
      BAUPLAN_ASSIGN_OR_RETURN(Field f,
                               schema.GetFieldByName(expr.column_name));
      return f.type;
    }
    case ExprKind::kLiteral:
      return expr.literal.is_null() ? TypeId::kInt64 : expr.literal.type();
    case ExprKind::kStar:
      return Status::InvalidArgument("'*' is not a value expression");
    case ExprKind::kBinary: {
      switch (expr.binary_op) {
        case BinaryOp::kAnd:
        case BinaryOp::kOr:
        case BinaryOp::kEq:
        case BinaryOp::kNe:
        case BinaryOp::kLt:
        case BinaryOp::kLe:
        case BinaryOp::kGt:
        case BinaryOp::kGe:
          return TypeId::kBool;
        case BinaryOp::kDiv:
          return TypeId::kDouble;
        default: {
          BAUPLAN_ASSIGN_OR_RETURN(TypeId l,
                                   InferExprType(*expr.left, schema));
          BAUPLAN_ASSIGN_OR_RETURN(TypeId r,
                                   InferExprType(*expr.right, schema));
          if (l == TypeId::kDouble || r == TypeId::kDouble) {
            return TypeId::kDouble;
          }
          return TypeId::kInt64;
        }
      }
    }
    case ExprKind::kUnary:
      if (expr.unary_op == UnaryOp::kNot) return TypeId::kBool;
      return InferExprType(*expr.left, schema);
    case ExprKind::kFunction: {
      const std::string& f = expr.function_name;
      if (f == "COUNT" || f == "LENGTH") return TypeId::kInt64;
      if (f == "AVG" || f == "ROUND" || f == "FLOOR" || f == "CEIL") {
        return TypeId::kDouble;
      }
      if (f == "SUM") {
        BAUPLAN_ASSIGN_OR_RETURN(TypeId t,
                                 InferExprType(*expr.args[0], schema));
        return t == TypeId::kDouble ? TypeId::kDouble : TypeId::kInt64;
      }
      if (f == "MIN" || f == "MAX" || f == "ABS" || f == "COALESCE") {
        if (expr.args.empty()) {
          return Status::InvalidArgument(StrCat(f, " needs an argument"));
        }
        return InferExprType(*expr.args[0], schema);
      }
      if (f == "LOWER" || f == "UPPER") return TypeId::kString;
      return Status::InvalidArgument(StrCat("unknown function ", f));
    }
    case ExprKind::kIsNull:
    case ExprKind::kBetween:
    case ExprKind::kInList:
    case ExprKind::kLike:
      return TypeId::kBool;
    case ExprKind::kCast:
      return expr.cast_type;
    case ExprKind::kCase:
      if (expr.list.size() >= 2) {
        return InferExprType(*expr.list[1], schema);
      }
      return Status::InvalidArgument("CASE without WHEN");
  }
  return Status::Internal("unhandled expression kind");
}

// ---------------------------------------------------------------- planner

Result<PlanPtr> PlanQuery(const SelectStatement& stmt,
                          const SchemaResolver& resolver) {
  if (stmt.union_next != nullptr) {
    // Plan every branch of the UNION ALL chain, then stack them.
    auto union_node = MakePlanNode(PlanKind::kUnion);
    const SelectStatement* current = &stmt;
    while (current != nullptr) {
      SelectStatement branch = *current;
      branch.union_next = nullptr;
      BAUPLAN_ASSIGN_OR_RETURN(PlanPtr child, PlanQuery(branch, resolver));
      if (!union_node->children.empty()) {
        const Schema& first = union_node->children[0]->schema;
        const Schema& this_schema = child->schema;
        if (first.num_fields() != this_schema.num_fields()) {
          return Status::InvalidArgument(
              StrCat("UNION ALL arity mismatch: ", first.num_fields(),
                     " vs ", this_schema.num_fields(), " columns"));
        }
        for (int i = 0; i < first.num_fields(); ++i) {
          if (first.field(i).type != this_schema.field(i).type) {
            return Status::InvalidArgument(
                StrCat("UNION ALL type mismatch in column ", i + 1, ": ",
                       columnar::TypeIdToString(first.field(i).type),
                       " vs ",
                       columnar::TypeIdToString(this_schema.field(i).type)));
          }
        }
      }
      union_node->children.push_back(std::move(child));
      current = current->union_next.get();
    }
    // Output names come from the first branch (standard SQL).
    union_node->schema = union_node->children[0]->schema;
    return union_node;
  }

  BAUPLAN_ASSIGN_OR_RETURN(PlanPtr plan, PlanFrom(stmt, resolver));
  Schema scope = plan->schema;

  // WHERE.
  if (stmt.where != nullptr) {
    if (ContainsAggregate(*stmt.where)) {
      return Status::InvalidArgument(
          "aggregates are not allowed in WHERE (use HAVING)");
    }
    ExprPtr where = CloneExpr(stmt.where);
    BAUPLAN_RETURN_NOT_OK(BindExpr(where.get(), scope));
    auto filter = MakePlanNode(PlanKind::kFilter);
    filter->children = {plan};
    filter->predicate = std::move(where);
    filter->schema = scope;
    plan = filter;
  }

  // Expand SELECT * and bind select expressions.
  std::vector<ExprPtr> select_exprs;
  std::vector<std::string> select_names;
  for (size_t i = 0; i < stmt.items.size(); ++i) {
    const auto& item = stmt.items[i];
    if (item.expr->kind == ExprKind::kStar) {
      for (const auto& f : scope.fields()) {
        select_exprs.push_back(MakeColumnRef("", f.name));
        select_names.push_back(f.name);
      }
      continue;
    }
    ExprPtr bound = CloneExpr(item.expr);
    BAUPLAN_RETURN_NOT_OK(BindExpr(bound.get(), scope));
    select_names.push_back(item.alias.empty()
                               ? DeriveName(*bound, select_names.size())
                               : item.alias);
    select_exprs.push_back(std::move(bound));
  }

  // HAVING and ORDER BY expressions also live in the aggregate scope.
  ExprPtr having;
  if (stmt.having != nullptr) {
    having = CloneExpr(stmt.having);
    BAUPLAN_RETURN_NOT_OK(BindExpr(having.get(), scope));
  }

  bool needs_aggregate = !stmt.group_by.empty();
  for (const auto& e : select_exprs) {
    if (ContainsAggregate(*e)) needs_aggregate = true;
  }
  if (having != nullptr) needs_aggregate = true;
  for (const auto& key : stmt.order_by) {
    if (ContainsAggregate(*key.expr)) needs_aggregate = true;
  }

  const Schema pre_agg_scope = scope;
  std::vector<std::pair<std::string, std::string>> replacements;

  if (needs_aggregate) {
    auto agg = MakePlanNode(PlanKind::kAggregate);
    agg->children = {plan};
    std::vector<Field> out_fields;
    for (size_t i = 0; i < stmt.group_by.size(); ++i) {
      ExprPtr key = CloneExpr(stmt.group_by[i]);
      BAUPLAN_RETURN_NOT_OK(BindExpr(key.get(), scope));
      if (ContainsAggregate(*key)) {
        return Status::InvalidArgument("aggregates not allowed in GROUP BY");
      }
      std::string name = DeriveName(*key, i);
      // Keep names unique in the aggregate output.
      std::string unique = name;
      int suffix = 1;
      while (true) {
        bool taken = false;
        for (const auto& f : out_fields) {
          if (f.name == unique) taken = true;
        }
        if (!taken) break;
        unique = StrCat(name, "_", suffix++);
      }
      BAUPLAN_ASSIGN_OR_RETURN(TypeId type, InferExprType(*key, scope));
      out_fields.push_back({unique, type, true});
      replacements.emplace_back(key->ToString(), unique);
      agg->group_by.push_back(std::move(key));
      agg->group_names.push_back(unique);
    }

    // Aggregate calls from SELECT, HAVING, ORDER BY.
    std::vector<ExprPtr> agg_calls;
    std::set<std::string> seen;
    for (const auto& e : select_exprs) CollectAggregates(e, &agg_calls, &seen);
    if (having != nullptr) CollectAggregates(having, &agg_calls, &seen);
    for (const auto& key : stmt.order_by) {
      // Aggregate-bearing order keys (ORDER BY COUNT(*) DESC) need their
      // aggregates computed too. Keys that are pure select aliases will
      // fail this binding; they resolve against the projection later.
      ExprPtr bound = CloneExpr(key.expr);
      if (BindExpr(bound.get(), scope).ok()) {
        CollectAggregates(bound, &agg_calls, &seen);
      }
    }

    for (size_t i = 0; i < agg_calls.size(); ++i) {
      const ExprPtr& call = agg_calls[i];
      AggregateItem item;
      item.function = call->function_name;
      item.distinct = call->distinct;
      item.arg = call->star_arg ? nullptr : call->args[0];
      item.output_name = StrCat("_agg", i);
      BAUPLAN_ASSIGN_OR_RETURN(TypeId type, InferExprType(*call, scope));
      out_fields.push_back({item.output_name, type, true});
      replacements.emplace_back(call->ToString(), item.output_name);
      agg->aggregates.push_back(std::move(item));
    }
    agg->schema = Schema(out_fields);
    plan = agg;
    scope = agg->schema;

    // Rewrite select/having/order over the aggregate output.
    for (auto& e : select_exprs) {
      e = RewriteOverAggregate(e, replacements);
      BAUPLAN_RETURN_NOT_OK(CheckAggregateScope(*e, scope));
    }
    if (having != nullptr) {
      having = RewriteOverAggregate(having, replacements);
      BAUPLAN_RETURN_NOT_OK(CheckAggregateScope(*having, scope));
      auto filter = MakePlanNode(PlanKind::kFilter);
      filter->children = {plan};
      filter->predicate = having;
      filter->schema = scope;
      plan = filter;
    }
  } else if (having != nullptr) {
    return Status::InvalidArgument("HAVING requires aggregation");
  }

  // Final projection.
  auto project = MakePlanNode(PlanKind::kProject);
  project->children = {plan};
  std::vector<Field> out_fields;
  for (size_t i = 0; i < select_exprs.size(); ++i) {
    BAUPLAN_ASSIGN_OR_RETURN(TypeId type,
                             InferExprType(*select_exprs[i], scope));
    out_fields.push_back({select_names[i], type, true});
  }
  project->expressions = select_exprs;
  project->output_names = select_names;
  project->schema = Schema(out_fields);
  plan = project;

  if (stmt.distinct) {
    auto distinct = MakePlanNode(PlanKind::kDistinct);
    distinct->children = {plan};
    distinct->schema = plan->schema;
    plan = distinct;
  }

  // ORDER BY: bind against the projected output (aliases) first, falling
  // back to the pre-projection scope (hidden columns / aggregate outputs).
  if (!stmt.order_by.empty()) {
    auto sort = MakePlanNode(PlanKind::kSort);
    bool all_output = true;
    std::vector<OrderKey> keys;
    for (const auto& key : stmt.order_by) {
      ExprPtr bound = CloneExpr(key.expr);
      if (ContainsAggregate(*bound) ||
          !BindExpr(bound.get(), project->schema).ok()) {
        all_output = false;
        break;
      }
      keys.push_back({bound, key.ascending});
    }
    if (all_output) {
      sort->children = {plan};
      sort->schema = plan->schema;
      sort->sort_keys = std::move(keys);
      plan = sort;
    } else if (stmt.distinct) {
      return Status::InvalidArgument(
          "ORDER BY expressions must appear in the SELECT DISTINCT list");
    } else {
      // Sort below the projection on the wider scope (hidden base columns
      // in plain queries; group keys and aggregate outputs otherwise).
      PlanPtr input = project->children[0];
      keys.clear();
      for (const auto& key : stmt.order_by) {
        ExprPtr bound = CloneExpr(key.expr);
        if (needs_aggregate) {
          BAUPLAN_RETURN_NOT_OK(BindExpr(bound.get(), pre_agg_scope));
          bound = RewriteOverAggregate(bound, replacements);
          BAUPLAN_RETURN_NOT_OK(CheckAggregateScope(*bound, input->schema));
        } else {
          BAUPLAN_RETURN_NOT_OK(BindExpr(bound.get(), input->schema));
        }
        keys.push_back({bound, key.ascending});
      }
      sort->children = {input};
      sort->schema = input->schema;
      sort->sort_keys = std::move(keys);
      project->children[0] = sort;
    }
  }

  if (stmt.limit >= 0) {
    auto limit = MakePlanNode(PlanKind::kLimit);
    limit->children = {plan};
    limit->schema = plan->schema;
    limit->limit = stmt.limit;
    plan = limit;
  }
  return plan;
}

}  // namespace bauplan::sql
