#include "api/flags.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>

namespace vadasa::api {

namespace {

/// strtol and strtod skip leading whitespace; a flag value may not start
/// with it.
bool StartsWithSpace(const std::string& text) {
  return !text.empty() && std::isspace(static_cast<unsigned char>(text.front())) != 0;
}

/// Full-consumption strtol: "12x", "", " 12" all fail.
Result<long> ParseLong(const std::string& text) {
  if (text.empty()) return Status::InvalidArgument("empty integer");
  if (StartsWithSpace(text)) return Status::InvalidArgument("not an integer");
  errno = 0;
  char* end = nullptr;
  const long value = std::strtol(text.c_str(), &end, 10);
  if (errno == ERANGE) return Status::InvalidArgument("integer out of range");
  if (end == nullptr || *end != '\0' || end == text.c_str()) {
    return Status::InvalidArgument("not an integer");
  }
  return value;
}

/// Full-consumption strtod: "0.5x", "", " 0.5" all fail.
Result<double> ParseDouble(const std::string& text) {
  if (text.empty()) return Status::InvalidArgument("empty number");
  if (StartsWithSpace(text)) return Status::InvalidArgument("not a number");
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (errno == ERANGE) return Status::InvalidArgument("number out of range");
  if (end == nullptr || *end != '\0' || end == text.c_str()) {
    return Status::InvalidArgument("not a number");
  }
  return value;
}

}  // namespace

FlagParser& FlagParser::Bool(const std::string& name, const std::string& help) {
  specs_[name] = {Kind::kBool, help, 0, 0, 0.0, 0.0};
  order_.push_back(name);
  return *this;
}

FlagParser& FlagParser::String(const std::string& name, const std::string& help) {
  specs_[name] = {Kind::kString, help, 0, 0, 0.0, 0.0};
  order_.push_back(name);
  return *this;
}

FlagParser& FlagParser::Path(const std::string& name, const std::string& help) {
  specs_[name] = {Kind::kPath, help, 0, 0, 0.0, 0.0};
  order_.push_back(name);
  return *this;
}

FlagParser& FlagParser::Int(const std::string& name, const std::string& help,
                            long min_value, long max_value) {
  specs_[name] = {Kind::kInt, help, min_value, max_value, 0.0, 0.0};
  order_.push_back(name);
  return *this;
}

FlagParser& FlagParser::Double(const std::string& name, const std::string& help,
                               double min_value, double max_value) {
  specs_[name] = {Kind::kDouble, help, 0, 0, min_value, max_value};
  order_.push_back(name);
  return *this;
}

std::string FlagParser::Help(const std::string& indent) const {
  std::string out;
  for (const std::string& name : order_) {
    const Spec& spec = specs_.at(name);
    out += indent + "--" + name;
    switch (spec.kind) {
      case Kind::kBool: break;
      case Kind::kString:
      case Kind::kPath: out += "=VALUE"; break;
      case Kind::kInt:
        out += "=N (" + std::to_string(spec.int_min) + ".." +
               std::to_string(spec.int_max) + ")";
        break;
      case Kind::kDouble:
        out += "=X [" + std::to_string(spec.double_min) + ", " +
               std::to_string(spec.double_max) + "]";
        break;
    }
    out += "  " + spec.help + "\n";
  }
  return out;
}

Status FlagParser::ValidateValue(const std::string& name, const Spec& spec,
                                 const std::string& value) const {
  switch (spec.kind) {
    case Kind::kBool:
      return Status::InvalidArgument("flag --" + name + " takes no value");
    case Kind::kString:
      return Status::OK();
    case Kind::kPath:
      if (value.empty()) {
        return Status::InvalidArgument("flag --" + name +
                                       " requires a non-empty path");
      }
      return Status::OK();
    case Kind::kInt: {
      auto parsed = ParseLong(value);
      if (!parsed.ok()) {
        return Status::InvalidArgument("flag --" + name + "=" + value + ": " +
                                       parsed.status().message());
      }
      if (*parsed < spec.int_min || *parsed > spec.int_max) {
        return Status::InvalidArgument(
            "flag --" + name + "=" + value + ": must be in [" +
            std::to_string(spec.int_min) + ", " + std::to_string(spec.int_max) + "]");
      }
      return Status::OK();
    }
    case Kind::kDouble: {
      auto parsed = ParseDouble(value);
      if (!parsed.ok()) {
        return Status::InvalidArgument("flag --" + name + "=" + value + ": " +
                                       parsed.status().message());
      }
      // Negated form so NaN (never inside any range) is rejected too.
      if (!(*parsed >= spec.double_min && *parsed <= spec.double_max)) {
        return Status::InvalidArgument(
            "flag --" + name + "=" + value + ": must be in [" +
            std::to_string(spec.double_min) + ", " +
            std::to_string(spec.double_max) + "]");
      }
      return Status::OK();
    }
  }
  return Status::Internal("unreachable flag kind");
}

Result<FlagParser::Parsed> FlagParser::Parse(int argc, const char* const* argv,
                                             int first) const {
  std::vector<std::string> args;
  for (int i = first; i < argc; ++i) args.emplace_back(argv[i]);
  return Parse(args);
}

Result<FlagParser::Parsed> FlagParser::Parse(
    const std::vector<std::string>& args) const {
  Parsed parsed;
  bool flags_done = false;
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (flags_done || arg.rfind("--", 0) != 0) {
      parsed.positional_.push_back(arg);
      continue;
    }
    if (arg == "--") {
      flags_done = true;
      continue;
    }
    std::string name = arg.substr(2);
    std::string value;
    bool has_value = false;
    const size_t eq = name.find('=');
    if (eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
      has_value = true;
    }
    auto it = specs_.find(name);
    if (it == specs_.end()) {
      return Status::InvalidArgument("unknown flag --" + name);
    }
    const Spec& spec = it->second;
    if (spec.kind == Kind::kBool) {
      if (has_value) {
        return Status::InvalidArgument("flag --" + name + " takes no value");
      }
      parsed.values_[name] = "1";
      continue;
    }
    if (!has_value) {
      if (i + 1 >= args.size()) {
        return Status::InvalidArgument("flag --" + name + " requires a value");
      }
      value = args[++i];
    }
    VADASA_RETURN_NOT_OK(ValidateValue(name, spec, value));
    parsed.values_[name] = value;
    parsed.occurrences_.emplace_back(name, value);
  }
  return parsed;
}

std::string FlagParser::Parsed::GetString(const std::string& name,
                                          const std::string& fallback) const {
  auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

long FlagParser::Parsed::GetInt(const std::string& name, long fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return std::strtol(it->second.c_str(), nullptr, 10);
}

double FlagParser::Parsed::GetDouble(const std::string& name, double fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return std::strtod(it->second.c_str(), nullptr);
}

std::vector<std::string> FlagParser::Parsed::GetAll(const std::string& name) const {
  std::vector<std::string> values;
  for (const auto& [flag, value] : occurrences_) {
    if (flag == name) values.push_back(value);
  }
  return values;
}

}  // namespace vadasa::api
