#include "vadalog/expr_eval.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/similarity.h"
#include "common/string_util.h"

namespace vadasa::vadalog {

namespace {

Status ArityError(const std::string& fn, size_t want, size_t got) {
  return Status::TypeError("function " + fn + " expects " + std::to_string(want) +
                           " argument(s), got " + std::to_string(got));
}

Status IntOverflow(const std::string& what) {
  return Status::InvalidArgument("integer overflow in " + what);
}

/// a + b, a - b or a * b on int64; an overflow is an error, as division by
/// zero is.
Result<Value> IntArithmetic(BinaryOp op, int64_t a, int64_t b) {
  int64_t r = 0;
  const bool overflow = op == BinaryOp::kAdd   ? __builtin_add_overflow(a, b, &r)
                        : op == BinaryOp::kSub ? __builtin_sub_overflow(a, b, &r)
                                               : __builtin_mul_overflow(a, b, &r);
  if (overflow) {
    const char* symbol = op == BinaryOp::kAdd ? " + " : op == BinaryOp::kSub ? " - " : " * ";
    return IntOverflow(std::to_string(a) + symbol + std::to_string(b));
  }
  return Value::Int(r);
}

Result<Value> EvalBinary(BinaryOp op, const Value& a, const Value& b) {
  if (op == BinaryOp::kAdd && a.is_string() && b.is_string()) {
    return Value::String(a.as_string() + b.as_string());
  }
  VADASA_ASSIGN_OR_RETURN(const double x, a.ToNumeric());
  VADASA_ASSIGN_OR_RETURN(const double y, b.ToNumeric());
  const bool both_int = a.is_int() && b.is_int();
  switch (op) {
    case BinaryOp::kAdd:
      if (both_int) return IntArithmetic(op, a.as_int(), b.as_int());
      return Value::Double(x + y);
    case BinaryOp::kSub:
      if (both_int) return IntArithmetic(op, a.as_int(), b.as_int());
      return Value::Double(x - y);
    case BinaryOp::kMul:
      if (both_int) return IntArithmetic(op, a.as_int(), b.as_int());
      return Value::Double(x * y);
    case BinaryOp::kDiv:
      if (y == 0.0) return Status::InvalidArgument("division by zero");
      return Value::Double(x / y);
    case BinaryOp::kMod: {
      if (!both_int) {
        return Status::TypeError("mod needs integers, got " + a.ToString() + " and " +
                                 b.ToString());
      }
      if (b.as_int() == 0) return Status::InvalidArgument("mod by zero");
      // INT64_MIN % -1 overflows (and traps); every int mod -1 is 0.
      if (b.as_int() == -1) return Value::Int(0);
      return Value::Int(a.as_int() % b.as_int());
    }
  }
  return Status::Internal("unknown binary op");
}

bool IsPair(const Value& v) { return v.is_list() && v.items().size() == 2; }

/// Looks up the value of key `k` in a pairset; nullptr if absent.
const Value* PairsetGet(const Value& pairset, const Value& k) {
  if (!pairset.is_collection()) return nullptr;
  for (const Value& item : pairset.items()) {
    if (IsPair(item) && item.items()[0].Equals(k)) return &item.items()[1];
  }
  return nullptr;
}

Result<Value> EvalCall(const std::string& fn, const std::vector<Value>& a) {
  auto want = [&](size_t n) -> Status {
    if (a.size() != n) return ArityError(fn, n, a.size());
    return Status::OK();
  };
  // --- scalar ---
  if (fn == "abs") {
    VADASA_RETURN_NOT_OK(want(1));
    if (a[0].is_int()) {
      const int64_t x = a[0].as_int();
      if (x == std::numeric_limits<int64_t>::min()) {
        return IntOverflow("abs(" + std::to_string(x) + ")");
      }
      return Value::Int(std::abs(x));
    }
    VADASA_ASSIGN_OR_RETURN(const double x, a[0].ToNumeric());
    return Value::Double(std::fabs(x));
  }
  if (fn == "min" || fn == "max") {
    VADASA_RETURN_NOT_OK(want(2));
    VADASA_ASSIGN_OR_RETURN(const double x, a[0].ToNumeric());
    VADASA_ASSIGN_OR_RETURN(const double y, a[1].ToNumeric());
    const bool left = (fn == "min") ? (x <= y) : (x >= y);
    return left ? a[0] : a[1];
  }
  if (fn == "mod") {
    VADASA_RETURN_NOT_OK(want(2));
    return EvalBinary(BinaryOp::kMod, a[0], a[1]);
  }
  if (fn == "pow") {
    VADASA_RETURN_NOT_OK(want(2));
    VADASA_ASSIGN_OR_RETURN(const double x, a[0].ToNumeric());
    VADASA_ASSIGN_OR_RETURN(const double y, a[1].ToNumeric());
    return Value::Double(std::pow(x, y));
  }
  if (fn == "sqrt") {
    VADASA_RETURN_NOT_OK(want(1));
    VADASA_ASSIGN_OR_RETURN(const double x, a[0].ToNumeric());
    if (x < 0) return Status::InvalidArgument("sqrt of negative");
    return Value::Double(std::sqrt(x));
  }
  if (fn == "floor" || fn == "ceil" || fn == "round") {
    VADASA_RETURN_NOT_OK(want(1));
    VADASA_ASSIGN_OR_RETURN(const double x, a[0].ToNumeric());
    const double r = fn == "floor" ? std::floor(x) : fn == "ceil" ? std::ceil(x)
                                                                  : std::round(x);
    // Negated so NaN is refused too; 2^63 itself is one past INT64_MAX.
    if (!(r >= -9223372036854775808.0 && r < 9223372036854775808.0)) {
      return IntOverflow(fn + "(" + a[0].ToString() + ")");
    }
    return Value::Int(static_cast<int64_t>(r));
  }
  // --- logic ---
  if (fn == "if") {
    VADASA_RETURN_NOT_OK(want(3));
    if (!a[0].is_bool()) return Status::TypeError("if() condition must be bool");
    return a[0].as_bool() ? a[1] : a[2];
  }
  if (fn == "and" || fn == "or") {
    VADASA_RETURN_NOT_OK(want(2));
    if (!a[0].is_bool() || !a[1].is_bool()) {
      return Status::TypeError(fn + "() needs bool arguments");
    }
    return Value::Bool(fn == "and" ? (a[0].as_bool() && a[1].as_bool())
                                   : (a[0].as_bool() || a[1].as_bool()));
  }
  if (fn == "not") {
    VADASA_RETURN_NOT_OK(want(1));
    if (!a[0].is_bool()) return Status::TypeError("not() needs a bool argument");
    return Value::Bool(!a[0].as_bool());
  }
  if (fn == "eq") {
    VADASA_RETURN_NOT_OK(want(2));
    return Value::Bool(a[0].Equals(a[1]));
  }
  if (fn == "ne") {
    VADASA_RETURN_NOT_OK(want(2));
    return Value::Bool(!a[0].Equals(a[1]));
  }
  if (fn == "maybe_eq") {
    VADASA_RETURN_NOT_OK(want(2));
    return Value::Bool(a[0].MaybeEquals(a[1]));
  }
  if (fn == "lt" || fn == "le" || fn == "gt" || fn == "ge") {
    VADASA_RETURN_NOT_OK(want(2));
    const int c = a[0].Compare(a[1]);
    if (fn == "lt") return Value::Bool(c < 0);
    if (fn == "le") return Value::Bool(c <= 0);
    if (fn == "gt") return Value::Bool(c > 0);
    return Value::Bool(c >= 0);
  }
  // --- string ---
  if (fn == "concat") {
    std::string out;
    for (const Value& v : a) out += v.ToString();
    return Value::String(std::move(out));
  }
  if (fn == "lower" || fn == "upper") {
    VADASA_RETURN_NOT_OK(want(1));
    if (!a[0].is_string()) return Status::TypeError(fn + "() needs a string");
    std::string s = a[0].as_string();
    for (char& c : s) {
      c = fn == "lower" ? static_cast<char>(std::tolower(static_cast<unsigned char>(c)))
                        : static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    }
    return Value::String(std::move(s));
  }
  if (fn == "strlen") {
    VADASA_RETURN_NOT_OK(want(1));
    if (!a[0].is_string()) return Status::TypeError("strlen() needs a string");
    return Value::Int(static_cast<int64_t>(a[0].as_string().size()));
  }
  if (fn == "similarity") {
    VADASA_RETURN_NOT_OK(want(2));
    if (!a[0].is_string() || !a[1].is_string()) {
      return Status::TypeError("similarity() needs strings");
    }
    return Value::Double(AttributeNameSimilarity(a[0].as_string(), a[1].as_string()));
  }
  // --- value inspection ---
  if (fn == "is_null") {
    VADASA_RETURN_NOT_OK(want(1));
    return Value::Bool(a[0].is_null());
  }
  if (fn == "null_label") {
    VADASA_RETURN_NOT_OK(want(1));
    if (!a[0].is_null()) return Status::TypeError("null_label() needs a null");
    return Value::Int(static_cast<int64_t>(a[0].null_label()));
  }
  if (fn == "to_string") {
    VADASA_RETURN_NOT_OK(want(1));
    return Value::String(a[0].ToString());
  }
  // --- collections ---
  if (fn == "list") return Value::List(a);
  if (fn == "set") return Value::Set(a);
  if (fn == "size") {
    VADASA_RETURN_NOT_OK(want(1));
    if (!a[0].is_collection()) return Status::TypeError("size() needs a collection");
    return Value::Int(static_cast<int64_t>(a[0].items().size()));
  }
  if (fn == "union" || fn == "intersection" || fn == "difference") {
    VADASA_RETURN_NOT_OK(want(2));
    if (!a[0].is_collection() || !a[1].is_collection()) {
      return Status::TypeError(fn + "() needs collections");
    }
    std::vector<Value> out;
    if (fn == "union") {
      out = a[0].items();
      out.insert(out.end(), a[1].items().begin(), a[1].items().end());
    } else if (fn == "intersection") {
      for (const Value& v : a[0].items()) {
        for (const Value& w : a[1].items()) {
          if (v.Equals(w)) {
            out.push_back(v);
            break;
          }
        }
      }
    } else {
      for (const Value& v : a[0].items()) {
        bool found = false;
        for (const Value& w : a[1].items()) {
          if (v.Equals(w)) {
            found = true;
            break;
          }
        }
        if (!found) out.push_back(v);
      }
    }
    return Value::Set(std::move(out));
  }
  if (fn == "contains") {
    VADASA_RETURN_NOT_OK(want(2));
    if (!a[0].is_collection()) return Status::TypeError("contains() needs a collection");
    for (const Value& v : a[0].items()) {
      if (v.Equals(a[1])) return Value::Bool(true);
    }
    return Value::Bool(false);
  }
  if (fn == "pair") {
    VADASA_RETURN_NOT_OK(want(2));
    return Value::List({a[0], a[1]});
  }
  if (fn == "first" || fn == "second") {
    VADASA_RETURN_NOT_OK(want(1));
    if (!IsPair(a[0])) return Status::TypeError(fn + "() needs a pair");
    return a[0].items()[fn == "first" ? 0 : 1];
  }
  if (fn == "get") {
    VADASA_RETURN_NOT_OK(want(2));
    const Value* v = PairsetGet(a[0], a[1]);
    if (v == nullptr) {
      return Status::NotFound("get(): key " + a[1].ToString() + " not in " +
                              a[0].ToString());
    }
    return *v;
  }
  if (fn == "has_key") {
    VADASA_RETURN_NOT_OK(want(2));
    return Value::Bool(PairsetGet(a[0], a[1]) != nullptr);
  }
  if (fn == "with") {
    VADASA_RETURN_NOT_OK(want(3));
    if (!a[0].is_collection()) return Status::TypeError("with() needs a pairset");
    std::vector<Value> out;
    for (const Value& item : a[0].items()) {
      if (IsPair(item) && item.items()[0].Equals(a[1])) continue;
      out.push_back(item);
    }
    out.push_back(Value::List({a[1], a[2]}));
    return Value::Set(std::move(out));
  }
  if (fn == "without") {
    VADASA_RETURN_NOT_OK(want(2));
    if (!a[0].is_collection()) return Status::TypeError("without() needs a pairset");
    std::vector<Value> out;
    for (const Value& item : a[0].items()) {
      if (IsPair(item) && item.items()[0].Equals(a[1])) continue;
      out.push_back(item);
    }
    return Value::Set(std::move(out));
  }
  if (fn == "keys" || fn == "values") {
    VADASA_RETURN_NOT_OK(want(1));
    if (!a[0].is_collection()) return Status::TypeError(fn + "() needs a pairset");
    std::vector<Value> out;
    for (const Value& item : a[0].items()) {
      if (IsPair(item)) out.push_back(item.items()[fn == "keys" ? 0 : 1]);
    }
    return Value::Set(std::move(out));
  }
  if (fn == "project") {
    VADASA_RETURN_NOT_OK(want(2));
    if (!a[0].is_collection() || !a[1].is_collection()) {
      return Status::TypeError("project() needs (pairset, keyset)");
    }
    std::vector<Value> out;
    for (const Value& item : a[0].items()) {
      if (!IsPair(item)) continue;
      for (const Value& k : a[1].items()) {
        if (item.items()[0].Equals(k)) {
          out.push_back(item);
          break;
        }
      }
    }
    return Value::Set(std::move(out));
  }
  return Status::NotFound("unknown function: " + fn);
}

}  // namespace

Result<Value> EvalExpr(const Expr& expr, const VarLookup& lookup) {
  switch (expr.kind) {
    case Expr::Kind::kConst:
      return expr.constant;
    case Expr::Kind::kVar: {
      const Value* v = lookup(expr.var);
      if (v == nullptr) {
        return Status::FailedPrecondition("unbound variable in expression: " + expr.var);
      }
      return *v;
    }
    case Expr::Kind::kBinary: {
      VADASA_ASSIGN_OR_RETURN(const Value a, EvalExpr(*expr.args[0], lookup));
      VADASA_ASSIGN_OR_RETURN(const Value b, EvalExpr(*expr.args[1], lookup));
      return EvalBinary(expr.op, a, b);
    }
    case Expr::Kind::kCall: {
      std::vector<Value> args;
      args.reserve(expr.args.size());
      for (const auto& e : expr.args) {
        VADASA_ASSIGN_OR_RETURN(Value v, EvalExpr(*e, lookup));
        args.push_back(std::move(v));
      }
      return EvalCall(expr.call, args);
    }
  }
  return Status::Internal("unknown expression kind");
}

Result<bool> EvalCondition(const Condition& cond, const VarLookup& lookup) {
  VADASA_ASSIGN_OR_RETURN(const Value lhs, EvalExpr(*cond.lhs, lookup));
  VADASA_ASSIGN_OR_RETURN(const Value rhs, EvalExpr(*cond.rhs, lookup));
  switch (cond.op) {
    case CompareOp::kEq:
      return lhs.Equals(rhs);
    case CompareOp::kNe:
      return !lhs.Equals(rhs);
    case CompareOp::kLt:
      return lhs.Compare(rhs) < 0;
    case CompareOp::kLe:
      return lhs.Compare(rhs) <= 0;
    case CompareOp::kGt:
      return lhs.Compare(rhs) > 0;
    case CompareOp::kGe:
      return lhs.Compare(rhs) >= 0;
    case CompareOp::kIn: {
      if (!rhs.is_collection()) {
        return Status::TypeError("'in' needs a collection on the right");
      }
      for (const Value& v : rhs.items()) {
        if (v.Equals(lhs)) return true;
      }
      return false;
    }
    case CompareOp::kSubset: {
      if (!lhs.is_collection() || !rhs.is_collection()) {
        return Status::TypeError("'subset' needs collections");
      }
      for (const Value& v : lhs.items()) {
        bool found = false;
        for (const Value& w : rhs.items()) {
          if (v.Equals(w)) {
            found = true;
            break;
          }
        }
        if (!found) return false;
      }
      return true;
    }
  }
  return Status::Internal("unknown comparison");
}

}  // namespace vadasa::vadalog
