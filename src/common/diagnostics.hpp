// Structured diagnostics for layout ingestion.
//
// A DiagnosticSink collects *every* problem found while parsing or
// validating an input file — severity, stable error code, file, line,
// message — instead of surfacing only the first failure. Parsers and
// validators append to a caller-supplied sink so that a batch loader can
// attribute diagnostics to individual designs and decide per design whether
// to repair, skip, or abort.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace repro::common {

enum class Severity {
  kNote = 0,   ///< informational (e.g. a repair that was applied)
  kWarning,    ///< suspicious but usable after auto-repair
  kError,      ///< content lost or unusable; the artifact is rejected
  kFatal,      ///< processing of the artifact had to stop early
};

const char* to_string(Severity s);

/// One structured finding. `code` is a stable dotted identifier
/// ("def.unknown_macro", "validate.off_grid_wire") suitable for counting
/// and filtering; `line` is 1-based, 0 when the finding concerns the whole
/// file.
struct Diagnostic {
  Severity severity = Severity::kError;
  std::string code;
  std::string file;
  int line = 0;
  std::string message;

  /// "error: chip.def:12: [def.unknown_macro] unknown macro 'NANDX'"
  std::string to_string() const;
};

/// Appends diagnostics; bounds memory on pathological inputs by capping the
/// number of *stored* diagnostics (counts keep accumulating past the cap).
class DiagnosticSink {
 public:
  explicit DiagnosticSink(std::string file = "") : file_(std::move(file)) {}

  /// File name attached to subsequently reported diagnostics.
  void set_file(std::string file) { file_ = std::move(file); }
  const std::string& file() const { return file_; }

  void report(Severity sev, std::string code, int line, std::string message);

  void note(std::string code, int line, std::string message) {
    report(Severity::kNote, std::move(code), line, std::move(message));
  }
  void warning(std::string code, int line, std::string message) {
    report(Severity::kWarning, std::move(code), line, std::move(message));
  }
  void error(std::string code, int line, std::string message) {
    report(Severity::kError, std::move(code), line, std::move(message));
  }
  void fatal(std::string code, int line, std::string message) {
    report(Severity::kFatal, std::move(code), line, std::move(message));
  }

  const std::vector<Diagnostic>& diagnostics() const { return diags_; }
  std::size_t size() const { return diags_.size(); }
  bool empty() const { return diags_.empty() && total_ == 0; }

  /// Total reported at `sev`, including diagnostics dropped by the cap.
  std::size_t count(Severity sev) const {
    return counts_[static_cast<std::size_t>(sev)];
  }
  std::size_t num_errors() const {
    return count(Severity::kError) + count(Severity::kFatal);
  }
  bool has_errors() const { return num_errors() > 0; }

  /// First stored diagnostic with severity >= kError, or nullptr.
  const Diagnostic* first_error() const;

  /// "2 errors, 1 warning" (omits empty categories; "clean" when empty).
  std::string summary() const;

  /// Writes every stored warning, error and fatal diagnostic, one per
  /// indented line, then how many further diagnostics the cap dropped.
  void print(std::ostream& os) const;

  void clear();

  std::size_t dropped() const { return total_ - diags_.size(); }

 private:
  std::string file_;
  std::vector<Diagnostic> diags_;
  std::size_t counts_[4] = {0, 0, 0, 0};
  std::size_t total_ = 0;
  std::size_t max_stored_ = 1024;  ///< further diagnostics are only counted
};

}  // namespace repro::common
