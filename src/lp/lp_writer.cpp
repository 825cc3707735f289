#include "lp/lp_writer.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <ostream>
#include <span>
#include <sstream>
#include <unordered_set>
#include <vector>

#include "support/contracts.hpp"

namespace mcs::lp {

namespace {

/// LP-format-safe names: keep [A-Za-z0-9_], never start with a digit or
/// 'e'/'E' (which the format reads as part of a number).
std::string sanitize(const std::string& name, std::size_t index,
                     char fallback_prefix) {
  if (name.empty()) {
    return fallback_prefix + std::to_string(index);
  }
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    out.push_back(std::isalnum(static_cast<unsigned char>(c)) != 0 ? c : '_');
  }
  const char first = out.front();
  if (std::isdigit(static_cast<unsigned char>(first)) != 0 || first == 'e' ||
      first == 'E') {
    out.insert(out.begin(), 'v');
  }
  return out;
}

/// Sanitized names with collisions resolved: two distinct model names that
/// sanitize identically (e.g. "a.b" and "a_b") would otherwise alias in
/// the export and break any reader.  Deterministic: suffix the entity's
/// index, then widen until free.
std::vector<std::string> unique_names(const std::vector<std::string>& raw,
                                      char fallback_prefix) {
  std::vector<std::string> names;
  names.reserve(raw.size());
  std::unordered_set<std::string> used;
  used.reserve(raw.size());
  for (std::size_t i = 0; i < raw.size(); ++i) {
    std::string candidate = sanitize(raw[i], i, fallback_prefix);
    while (!used.insert(candidate).second) {
      candidate += '_';
      candidate += std::to_string(i);
    }
    names.push_back(std::move(candidate));
  }
  return names;
}

void write_number(std::ostream& out, double value) {
  // LP format accepts plain decimal or scientific; print losslessly
  // without paying for a stringstream per number (same idiom as
  // support/csv.cpp).
  char buf[64];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, value,
                                       std::chars_format::general, 17);
  MCS_ASSERT(ec == std::errc{}, "to_chars(double) failed");
  out.write(buf, ptr - buf);
}

/// Writes normalized `terms` plus a nonzero `constant`, or "0" for neither.
void write_terms(std::ostream& out, std::span<const Term> terms,
                 const std::vector<std::string>& names,
                 double constant = 0.0) {
  bool first = true;
  for (const auto& [var, coef] : terms) {
    if (coef >= 0.0) {
      out << (first ? "" : " + ");
    } else {
      out << (first ? "- " : " - ");
    }
    write_number(out, std::abs(coef));
    out << ' ' << names[var];
    first = false;
  }
  if (constant != 0.0) {
    if (constant >= 0.0) {
      out << (first ? "" : " + ");
    } else {
      out << (first ? "- " : " - ");
    }
    write_number(out, std::abs(constant));
    first = false;
  }
  if (first) {
    out << "0";
  }
}

}  // namespace

void write_lp_format(const Model& model, std::ostream& out) {
  std::vector<std::string> raw_vars;
  raw_vars.reserve(model.num_variables());
  for (const Variable& v : model.variables()) {
    raw_vars.push_back(v.name);
  }
  const std::vector<std::string> names = unique_names(raw_vars, 'x');
  std::vector<std::string> raw_rows;
  raw_rows.reserve(model.num_constraints());
  for (std::size_t r = 0; r < model.num_constraints(); ++r) {
    raw_rows.emplace_back(model.row(r).name);
  }
  const std::vector<std::string> labels = unique_names(raw_rows, 'c');

  out << (model.objective_sense() == Sense::kMaximize ? "Maximize"
                                                      : "Minimize")
      << "\n obj: ";
  // A constant objective term is legal in the CPLEX LP format and must be
  // part of the expression — a comment would silently drop it on reparse.
  const LinExpr objective = model.objective().normalized();
  write_terms(out, objective.terms(), names, objective.constant());
  out << "\nSubject To\n";
  for (std::size_t r = 0; r < model.num_constraints(); ++r) {
    const RowView c = model.row(r);
    out << ' ' << labels[r] << ": ";
    write_terms(out, c.terms, names);
    switch (c.relation) {
      case Relation::kLe:
        out << " <= ";
        break;
      case Relation::kGe:
        out << " >= ";
        break;
      case Relation::kEq:
        out << " = ";
        break;
    }
    write_number(out, c.rhs);
    out << "\n";
  }

  out << "Bounds\n";
  for (std::size_t i = 0; i < model.num_variables(); ++i) {
    const Variable& v = model.variables()[i];
    out << ' ';
    if (std::isinf(v.lower) && std::isinf(v.upper)) {
      out << names[i] << " free";
    } else if (std::isinf(v.lower)) {
      out << "-inf <= " << names[i] << " <= ";
      write_number(out, v.upper);
    } else if (std::isinf(v.upper)) {
      write_number(out, v.lower);
      out << " <= " << names[i];
    } else {
      write_number(out, v.lower);
      out << " <= " << names[i] << " <= ";
      write_number(out, v.upper);
    }
    out << "\n";
  }

  bool have_general = false;
  bool have_binary = false;
  for (const Variable& v : model.variables()) {
    have_general |= v.type == VarType::kInteger;
    have_binary |= v.type == VarType::kBinary;
  }
  if (have_general) {
    out << "Generals\n";
    for (std::size_t i = 0; i < model.num_variables(); ++i) {
      if (model.variables()[i].type == VarType::kInteger) {
        out << ' ' << names[i] << "\n";
      }
    }
  }
  if (have_binary) {
    out << "Binaries\n";
    for (std::size_t i = 0; i < model.num_variables(); ++i) {
      if (model.variables()[i].type == VarType::kBinary) {
        out << ' ' << names[i] << "\n";
      }
    }
  }
  out << "End\n";
}

std::string to_lp_format(const Model& model) {
  std::ostringstream out;
  write_lp_format(model, out);
  return out.str();
}

}  // namespace mcs::lp
