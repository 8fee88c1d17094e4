#include "common/diagnostics.hpp"

#include <ostream>

namespace repro::common {

const char* to_string(Severity s) {
  switch (s) {
    case Severity::kNote: return "note";
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
    case Severity::kFatal: return "fatal";
  }
  return "unknown";
}

std::string Diagnostic::to_string() const {
  std::string out = common::to_string(severity);
  out += ": ";
  if (!file.empty()) {
    out += file;
    out += ':';
    if (line > 0) {
      out += std::to_string(line);
      out += ':';
    }
    out += ' ';
  } else if (line > 0) {
    out += "line " + std::to_string(line) + ": ";
  }
  out += '[' + code + "] " + message;
  return out;
}

void DiagnosticSink::report(Severity sev, std::string code, int line,
                            std::string message) {
  ++counts_[static_cast<std::size_t>(sev)];
  ++total_;
  if (diags_.size() >= max_stored_) return;
  diags_.push_back(Diagnostic{sev, std::move(code), file_, line,
                              std::move(message)});
}

const Diagnostic* DiagnosticSink::first_error() const {
  for (const Diagnostic& d : diags_) {
    if (d.severity >= Severity::kError) return &d;
  }
  return nullptr;
}

std::string DiagnosticSink::summary() const {
  const auto part = [](std::size_t n, const char* noun) {
    return std::to_string(n) + ' ' + noun + (n == 1 ? "" : "s");
  };
  std::string out;
  const std::size_t fatals = count(Severity::kFatal);
  const std::size_t errors = count(Severity::kError);
  const std::size_t warnings = count(Severity::kWarning);
  const std::size_t notes = count(Severity::kNote);
  const auto append = [&out](const std::string& s) {
    if (!out.empty()) out += ", ";
    out += s;
  };
  if (fatals > 0) append(part(fatals, "fatal error"));
  if (errors > 0) append(part(errors, "error"));
  if (warnings > 0) append(part(warnings, "warning"));
  if (notes > 0) append(part(notes, "note"));
  return out.empty() ? "clean" : out;
}

void DiagnosticSink::print(std::ostream& os) const {
  for (const Diagnostic& d : diags_) {
    if (d.severity >= Severity::kWarning) os << "  " << d.to_string() << '\n';
  }
  if (dropped() > 0) {
    os << "  ... " << dropped() << " further diagnostics not stored\n";
  }
}

void DiagnosticSink::clear() {
  diags_.clear();
  for (std::size_t& c : counts_) c = 0;
  total_ = 0;
}

}  // namespace repro::common
