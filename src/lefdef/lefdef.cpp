#include "lefdef/lefdef.hpp"

#include <algorithm>
#include <cstdint>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "common/obs.hpp"

namespace repro::lefdef {

namespace {

using common::DiagnosticSink;
using common::Severity;
using common::Status;
using common::StatusOr;

/// Thrown by token helpers to abandon the *current line*; the enclosing
/// section loop records the diagnostic and resumes with the next line.
struct LineFail {
  std::string code;
  std::string message;
};

/// Thrown when the rest of the file cannot be interpreted (structural
/// damage or error-cap overflow); caught at the parser entry point.
struct ParseAbort {};

/// Coordinates larger than this are certainly corruption, not layout.
constexpr long kMaxDbu = 1'000'000'000'000L;  // 10^12 DBU ~ a metre of die

/// Line-oriented tokenizer: reads one line at a time, splits on whitespace,
/// reports into a DiagnosticSink. Supports one line of push-back so a
/// section parser can hand an unexpected line back to its caller.
class LineReader {
 public:
  LineReader(std::istream& is, DiagnosticSink& sink)
      : is_(is), sink_(sink) {}

  /// Reads the next non-empty, non-comment line into tokens. Returns false
  /// at EOF.
  bool next(std::vector<std::string>& tokens) {
    if (pushed_) {
      tokens = pending_;
      pushed_ = false;
      return true;
    }
    std::string line;
    while (std::getline(is_, line)) {
      ++line_no_;
      tokens.clear();
      std::istringstream ss(line);
      std::string tok;
      while (ss >> tok) tokens.push_back(tok);
      if (tokens.empty() || tokens[0][0] == '#') continue;
      return true;
    }
    return false;
  }

  /// Hands the current line back; the next call to next() re-returns it.
  void push_back(const std::vector<std::string>& tokens) {
    pending_ = tokens;
    pushed_ = true;
  }

  int line() const { return line_no_; }

  /// Records an error-severity diagnostic at the current line and enforces
  /// the error cap (a flood of errors means the file is not this format at
  /// all — stop instead of reporting every line).
  void error(std::string code, std::string message) {
    sink_.error(std::move(code), line_no_, std::move(message));
    if (++errors_ >= kMaxErrors) {
      sink_.fatal("parse.too_many_errors", line_no_,
                  "more than " + std::to_string(kMaxErrors) +
                      " parse errors; giving up on this file");
      throw ParseAbort{};
    }
  }

  void warning(std::string code, std::string message) {
    sink_.warning(std::move(code), line_no_, std::move(message));
  }

  [[noreturn]] void abort(std::string code, std::string message) {
    error(std::move(code), std::move(message));
    throw ParseAbort{};
  }

  long to_long(const std::string& s) const {
    try {
      std::size_t used = 0;
      const long v = std::stol(s, &used);
      if (used != s.size()) {
        throw LineFail{"parse.bad_integer",
                       "expected integer, got '" + s + "'"};
      }
      if (v > kMaxDbu || v < -kMaxDbu) {
        throw LineFail{"parse.out_of_range",
                       "coordinate '" + s + "' outside sane range"};
      }
      return v;
    } catch (const std::invalid_argument&) {
      throw LineFail{"parse.bad_integer", "expected integer, got '" + s + "'"};
    } catch (const std::out_of_range&) {
      throw LineFail{"parse.out_of_range",
                     "integer '" + s + "' overflows"};
    }
  }

  /// For GCell coordinates and layer indices, which are stored as int.
  int to_int(const std::string& s) const {
    const long v = to_long(s);
    if (v > std::numeric_limits<int>::max() ||
        v < std::numeric_limits<int>::min()) {
      throw LineFail{"parse.out_of_range",
                     "value '" + s + "' does not fit a 32-bit grid index"};
    }
    return static_cast<int>(v);
  }

  static constexpr int kMaxErrors = 100;

 private:
  std::istream& is_;
  DiagnosticSink& sink_;
  int line_no_ = 0;
  int errors_ = 0;
  std::vector<std::string> pending_;
  bool pushed_ = false;
};

/// Line-scoped structural check: failure abandons the current line only.
void expect(bool cond, const char* code, const std::string& msg) {
  if (!cond) throw LineFail{code, msg};
}

/// Builds the failing Status for a parse that produced error diagnostics.
Status parse_failure(const DiagnosticSink& sink) {
  const common::Diagnostic* first = sink.first_error();
  if (first != nullptr) {
    return Status::ParseError("line " + std::to_string(first->line) + ": " +
                              first->message + " (" + sink.summary() + ")");
  }
  return Status::ParseError(sink.summary());
}

}  // namespace

void write_lef(std::ostream& os, const tech::Technology& tech,
               const netlist::Library& lib) {
  os << "VERSION 5.8 ;\n";
  for (int i = 1; i <= tech.num_metal_layers(); ++i) {
    const tech::MetalLayer& m = tech.metal(i);
    os << "LAYER " << m.name << " ROUTING " << to_string(m.preferred) << ' '
       << m.width_mult << ' ' << m.capacity << " ;\n";
  }
  for (int i = 1; i <= tech.num_via_layers(); ++i) {
    os << "LAYER " << tech.via(i).name << " CUT ;\n";
  }
  os << "GCELLSIZE " << tech.gcell_size() << " ;\n";
  for (int c = 0; c < lib.num_cells(); ++c) {
    const netlist::LibCell& lc = lib.cell(c);
    os << "MACRO " << lc.name << '\n';
    os << "  CLASS " << (lc.is_macro ? "BLOCK" : "CORE") << " ;\n";
    os << "  SIZE " << lc.width << " BY " << lc.height << " ;\n";
    os << "  DRIVE " << lc.drive_strength << " ;\n";
    for (const netlist::LibPin& p : lc.pins) {
      os << "  PIN " << p.name << ' '
         << (p.dir == netlist::PinDir::kInput ? "INPUT" : "OUTPUT") << ' '
         << p.offset.x << ' ' << p.offset.y << " ;\n";
    }
    os << "END " << lc.name << '\n';
  }
  os << "END LIBRARY\n";
}

StatusOr<LefContents> read_lef(std::istream& is, DiagnosticSink& sink) {
  OBS_SPAN("ingest.lef");
  OBS_COUNT("ingest.lef_files", 1);
  const std::size_t errors_before = sink.num_errors();
  LineReader lr(is, sink);
  std::vector<std::string> t;

  std::vector<tech::MetalLayer> metals;
  std::vector<tech::ViaLayer> vias;
  geom::Dbu gcell_size = 0;
  bool saw_gcellsize = false;
  netlist::Library lib;

  try {
    while (lr.next(t)) {
      try {
        if (t[0] == "VERSION") continue;
        if (t[0] == "LAYER") {
          expect(t.size() >= 3, "lef.short_layer", "short LAYER line");
          if (t[2] == "ROUTING") {
            expect(t.size() >= 6, "lef.short_layer",
                   "short ROUTING layer line");
            tech::MetalLayer m;
            m.name = t[1];
            m.index = static_cast<int>(metals.size()) + 1;
            if (t[3] == "HORIZONTAL") {
              m.preferred = tech::Direction::kHorizontal;
            } else if (t[3] == "VERTICAL") {
              m.preferred = tech::Direction::kVertical;
            } else {
              throw LineFail{"lef.bad_direction",
                             "bad routing direction '" + t[3] + "'"};
            }
            m.width_mult = lr.to_int(t[4]);
            m.capacity = lr.to_int(t[5]);
            expect(m.width_mult > 0, "lef.bad_width_mult",
                   "non-positive width multiplier");
            expect(m.capacity >= 0, "lef.bad_capacity", "negative capacity");
            metals.push_back(m);
          } else if (t[2] == "CUT") {
            vias.push_back(
                tech::ViaLayer{t[1], static_cast<int>(vias.size()) + 1});
          } else {
            throw LineFail{"lef.unknown_layer_type",
                           "unknown layer type " + t[2]};
          }
          continue;
        }
        if (t[0] == "GCELLSIZE") {
          expect(t.size() >= 2, "lef.short_gcellsize",
                 "short GCELLSIZE line");
          gcell_size = lr.to_long(t[1]);
          saw_gcellsize = true;
          if (gcell_size <= 0) {
            lr.error("lef.bad_gcellsize",
                     "GCELLSIZE must be positive, got " +
                         std::to_string(gcell_size));
          }
          continue;
        }
        if (t[0] == "MACRO") {
          expect(t.size() >= 2, "lef.macro_without_name",
                 "MACRO without name");
          netlist::LibCell lc;
          lc.name = t[1];
          bool terminated = false;
          while (lr.next(t)) {
            if (t[0] == "END") {
              terminated = true;
              break;
            }
            if (t[0] == "MACRO" || t[0] == "LAYER" || t[0] == "GCELLSIZE") {
              // A deleted END line: report and hand the line back so the
              // outer loop sees the next section.
              lr.error("lef.unterminated_macro",
                       "MACRO " + lc.name + " not terminated by END");
              lr.push_back(t);
              terminated = true;
              break;
            }
            try {
              if (t[0] == "CLASS") {
                expect(t.size() >= 2, "lef.short_class", "short CLASS line");
                lc.is_macro = (t[1] == "BLOCK");
              } else if (t[0] == "SIZE") {
                expect(t.size() >= 4 && t[2] == "BY", "lef.bad_size",
                       "malformed SIZE line");
                lc.width = lr.to_long(t[1]);
                lc.height = lr.to_long(t[3]);
                expect(lc.width >= 0 && lc.height >= 0, "lef.bad_size",
                       "negative macro dimensions");
              } else if (t[0] == "DRIVE") {
                expect(t.size() >= 2, "lef.short_drive", "short DRIVE line");
                lc.drive_strength = lr.to_int(t[1]);
              } else if (t[0] == "PIN") {
                expect(t.size() >= 5, "lef.short_pin", "short PIN line");
                netlist::LibPin p;
                p.name = t[1];
                if (t[2] == "INPUT") {
                  p.dir = netlist::PinDir::kInput;
                } else if (t[2] == "OUTPUT") {
                  p.dir = netlist::PinDir::kOutput;
                } else {
                  throw LineFail{"lef.bad_pin_direction",
                                 "bad pin direction " + t[2]};
                }
                p.offset = {lr.to_long(t[3]), lr.to_long(t[4])};
                lc.pins.push_back(std::move(p));
              } else {
                throw LineFail{"lef.unknown_macro_keyword",
                               "unknown MACRO body keyword " + t[0]};
              }
            } catch (const LineFail& f) {
              lr.error(f.code, f.message);
            }
          }
          if (!terminated) {
            lr.error("lef.unexpected_eof",
                     "end of file inside MACRO " + lc.name);
          }
          if (lib.find(lc.name).has_value()) {
            lr.error("lef.duplicate_macro",
                     "duplicate MACRO " + lc.name + "; keeping the first");
          } else {
            lib.add_cell(std::move(lc));
          }
          continue;
        }
        if (t[0] == "END") break;  // END LIBRARY
        throw LineFail{"lef.unknown_keyword", "unknown LEF keyword " + t[0]};
      } catch (const LineFail& f) {
        lr.error(f.code, f.message);
      }
    }

    if (metals.empty()) {
      lr.error("lef.no_layers", "LEF contained no layers");
    } else if (vias.size() + 1 != metals.size()) {
      lr.error("lef.layer_stack_mismatch",
               "expected " + std::to_string(metals.size() - 1) +
                   " via layers for " + std::to_string(metals.size()) +
                   " metal layers, got " + std::to_string(vias.size()));
    }
    if (!saw_gcellsize) {
      lr.error("lef.missing_gcellsize", "LEF missing GCELLSIZE");
    }
  } catch (const ParseAbort&) {
    // Diagnostics already recorded; fall through to the failure return.
  }

  if (sink.num_errors() > errors_before) return parse_failure(sink);
  return LefContents{
      tech::Technology(std::move(metals), std::move(vias), gcell_size),
      std::move(lib)};
}

void write_def(std::ostream& os, const netlist::Netlist& nl,
               const route::RouteDB& db, std::optional<int> split_layer) {
  os << "DESIGN " << (nl.name().empty() ? "anon" : nl.name()) << " ;\n";
  const geom::Rect die = db.grid.die();
  os << "DIEAREA ( " << die.lo.x << ' ' << die.lo.y << " ) ( " << die.hi.x
     << ' ' << die.hi.y << " ) ;\n";
  os << "COMPONENTS " << nl.num_cells() << " ;\n";
  for (netlist::CellId c = 0; c < nl.num_cells(); ++c) {
    const netlist::CellInst& inst = nl.cell(c);
    os << "- " << inst.name << ' ' << nl.library().cell(inst.lib_cell).name
       << " ( " << inst.origin.x << ' ' << inst.origin.y << " ) ;\n";
  }
  os << "END COMPONENTS\n";
  os << "NETS " << nl.num_nets() << " ;\n";
  const int max_metal = split_layer ? *split_layer
                                    : std::numeric_limits<int>::max();
  const int max_via = split_layer ? *split_layer
                                  : std::numeric_limits<int>::max();
  for (netlist::NetId n = 0; n < nl.num_nets(); ++n) {
    const netlist::Net& net = nl.net(n);
    os << "- " << net.name;
    for (const netlist::PinRef& p : net.pins) {
      const netlist::CellInst& inst = nl.cell(p.cell);
      const netlist::LibCell& lc = nl.library().cell(inst.lib_cell);
      os << " ( " << inst.name << ' '
         << lc.pins[static_cast<std::size_t>(p.lib_pin)].name << " )";
    }
    os << '\n';
    const route::NetRoute& nr = db.route_of(n);
    for (const route::WireSeg& w : nr.wires) {
      if (w.layer > max_metal) continue;
      os << "  WIRE M" << w.layer << " ( " << w.a.x << ' ' << w.a.y
         << " ) ( " << w.b.x << ' ' << w.b.y << " )\n";
    }
    for (const route::Via& v : nr.vias) {
      if (v.via_layer > max_via) continue;
      os << "  VIA V" << v.via_layer << " ( " << v.at.x << ' ' << v.at.y
         << " )\n";
    }
    os << "  ;\n";
  }
  os << "END NETS\n";
  os << "END DESIGN\n";
}

StatusOr<DefDesign> read_def(std::istream& is,
                             std::shared_ptr<const netlist::Library> lib,
                             DiagnosticSink& sink) {
  OBS_SPAN("ingest.def");
  OBS_COUNT("ingest.def_files", 1);
  const std::size_t errors_before = sink.num_errors();
  LineReader lr(is, sink);
  std::vector<std::string> t;

  geom::Rect die;
  std::vector<route::NetRoute> routes;
  netlist::Netlist nl(lib, "anon");

  try {
    // Header: DESIGN name ;
    if (!lr.next(t) || t[0] != "DESIGN" || t.size() < 2) {
      lr.abort("def.expected_design", "expected DESIGN");
    }
    nl = netlist::Netlist(lib, t[1]);

    // DIEAREA ( x0 y0 ) ( x1 y1 ) ;
    if (!lr.next(t) || t[0] != "DIEAREA" || t.size() < 10) {
      lr.abort("def.expected_diearea", "expected DIEAREA");
    }
    try {
      geom::Dbu x0 = lr.to_long(t[2]), y0 = lr.to_long(t[3]);
      geom::Dbu x1 = lr.to_long(t[6]), y1 = lr.to_long(t[7]);
      if (x1 < x0 || y1 < y0) {
        lr.error("def.inverted_diearea",
                 "DIEAREA corners are inverted; normalizing");
        if (x1 < x0) std::swap(x0, x1);
        if (y1 < y0) std::swap(y0, y1);
      }
      die = geom::Rect(x0, y0, x1, y1);
    } catch (const LineFail& f) {
      lr.error(f.code, f.message);
      throw ParseAbort{};  // no usable die: nothing downstream can work
    }

    // COMPONENTS n ;
    if (!lr.next(t) || t[0] != "COMPONENTS") {
      lr.abort("def.expected_components", "expected COMPONENTS");
    }
    long declared_components = -1;
    if (t.size() >= 2) {
      try {
        declared_components = lr.to_long(t[1]);
      } catch (const LineFail& f) {
        lr.error(f.code, f.message);
      }
    }
    std::vector<std::pair<std::string, netlist::CellId>> by_name;
    std::unordered_set<std::string> comp_names;
    long components_seen = 0;
    bool components_terminated = false;
    while (lr.next(t)) {
      if (t[0] == "END") {
        components_terminated = true;
        break;
      }
      if (t[0] == "NETS") {
        lr.error("def.unterminated_components",
                 "COMPONENTS section not terminated by END");
        lr.push_back(t);
        components_terminated = true;
        break;
      }
      ++components_seen;
      try {
        expect(t[0] == "-" && t.size() >= 7, "def.malformed_component",
               "malformed component line");
        expect(t[3] == "(" && t[6] == ")", "def.malformed_component",
               "malformed component placement");
        const auto lc = lib->find(t[2]);
        expect(lc.has_value(), "def.unknown_macro", "unknown macro " + t[2]);
        const geom::Point origin{lr.to_long(t[4]), lr.to_long(t[5])};
        if (!comp_names.insert(t[1]).second) {
          lr.warning("def.duplicate_component",
                     "duplicate component " + t[1] + "; keeping the first");
          continue;
        }
        const netlist::CellId id = nl.add_cell(t[1], *lc, origin);
        by_name.emplace_back(t[1], id);
      } catch (const LineFail& f) {
        lr.error(f.code, f.message);
      }
    }
    if (!components_terminated) {
      lr.abort("def.unexpected_eof", "end of file inside COMPONENTS");
    }
    if (declared_components >= 0 && components_seen != declared_components) {
      lr.error("def.component_count_mismatch",
               "COMPONENTS declared " + std::to_string(declared_components) +
                   " but " + std::to_string(components_seen) + " found");
    }
    std::sort(by_name.begin(), by_name.end());
    const auto find_cell = [&](const std::string& name) -> netlist::CellId {
      auto it = std::lower_bound(
          by_name.begin(), by_name.end(), name,
          [](const auto& a, const std::string& b) { return a.first < b; });
      if (it == by_name.end() || it->first != name) {
        return netlist::kInvalidCell;
      }
      return it->second;
    };

    // NETS n ;
    if (!lr.next(t) || t[0] != "NETS") {
      lr.abort("def.expected_nets", "expected NETS");
    }
    long declared_nets = -1;
    if (t.size() >= 2) {
      try {
        declared_nets = lr.to_long(t[1]);
      } catch (const LineFail& f) {
        lr.error(f.code, f.message);
      }
    }
    std::unordered_set<std::string> net_names;
    long nets_seen = 0;
    bool nets_terminated = false;
    while (lr.next(t)) {
      if (t[0] == "END") {
        nets_terminated = true;
        break;
      }
      ++nets_seen;
      bool keep = true;
      netlist::Net net;
      if (t[0] != "-" || t.size() < 2) {
        lr.error("def.malformed_net", "malformed net line");
        keep = false;
      } else {
        net.name = t[1];
        if (!net_names.insert(net.name).second) {
          lr.warning("def.duplicate_net",
                     "duplicate net " + net.name + "; keeping the first");
          keep = false;
        }
        // Pin groups: ( component pin ). A damaged group is reported and
        // the rest of the line abandoned — the surviving pin count decides
        // below whether the net is still usable.
        for (std::size_t i = 2; i < t.size();) {
          if (t[i] != "(" || i + 3 >= t.size() || t[i + 3] != ")") {
            lr.error("def.malformed_net_pins",
                     "malformed pin group on net " + net.name);
            keep = false;
            break;
          }
          const netlist::CellId cell = find_cell(t[i + 1]);
          if (cell == netlist::kInvalidCell) {
            lr.error("def.unknown_component",
                     "unknown component " + t[i + 1] + " on net " + net.name);
            i += 4;
            continue;
          }
          const netlist::LibCell& lc = lib->cell(nl.cell(cell).lib_cell);
          int pin_idx = -1;
          for (int p = 0; p < static_cast<int>(lc.pins.size()); ++p) {
            if (lc.pins[static_cast<std::size_t>(p)].name == t[i + 2]) {
              pin_idx = p;
              break;
            }
          }
          if (pin_idx < 0) {
            lr.error("def.unknown_pin", "unknown pin " + t[i + 2] + " of " +
                                            lc.name + " on net " + net.name);
            i += 4;
            continue;
          }
          if (lc.pins[static_cast<std::size_t>(pin_idx)].dir ==
              netlist::PinDir::kOutput) {
            net.driver = static_cast<int>(net.pins.size());
          }
          net.pins.push_back(netlist::PinRef{cell, pin_idx});
          i += 4;
        }
      }
      // Route body lines until ';'. Consumed even when the net is being
      // dropped, so the reader stays aligned with the section structure.
      route::NetRoute nr;
      bool body_terminated = false;
      while (lr.next(t)) {
        if (t[0] == ";") {
          body_terminated = true;
          break;
        }
        if (t[0] == "-" || t[0] == "END") {
          lr.error("def.unterminated_net",
                   "net " + net.name + " not terminated by ';'");
          lr.push_back(t);
          body_terminated = true;
          break;
        }
        try {
          if (t[0] == "WIRE") {
            expect(t.size() >= 10, "def.malformed_wire",
                   "malformed WIRE line");
            expect(t[2] == "(" && t[5] == ")" && t[6] == "(" && t[9] == ")",
                   "def.malformed_wire", "malformed WIRE coordinates");
            expect(t[1].size() >= 2 && t[1][0] == 'M', "def.bad_wire_layer",
                   "bad wire layer '" + t[1] + "'");
            route::WireSeg w;
            w.layer = lr.to_int(t[1].substr(1));
            w.a = {lr.to_int(t[3]), lr.to_int(t[4])};
            w.b = {lr.to_int(t[7]), lr.to_int(t[8])};
            nr.wires.push_back(w);
          } else if (t[0] == "VIA") {
            expect(t.size() >= 6, "def.malformed_via", "malformed VIA line");
            expect(t[2] == "(" && t[5] == ")", "def.malformed_via",
                   "malformed VIA coordinates");
            expect(t[1].size() >= 2 && t[1][0] == 'V', "def.bad_via_layer",
                   "bad via layer '" + t[1] + "'");
            route::Via v;
            v.via_layer = lr.to_int(t[1].substr(1));
            v.at = {lr.to_int(t[3]), lr.to_int(t[4])};
            nr.vias.push_back(v);
          } else {
            throw LineFail{"def.unknown_net_keyword",
                           "unknown net body keyword " + t[0]};
          }
        } catch (const LineFail& f) {
          lr.error(f.code, f.message);
        }
      }
      if (!body_terminated) {
        lr.abort("def.unexpected_eof", "end of file inside net " + net.name);
      }
      if (keep && net.pins.size() < 2) {
        lr.warning("def.dangling_net",
                   "net " + net.name + " has fewer than 2 usable pins; "
                   "dropping it");
        keep = false;
      }
      if (keep) {
        const netlist::NetId nid = nl.add_net(std::move(net));
        nr.net = nid;
        routes.push_back(std::move(nr));
      }
    }
    if (!nets_terminated) {
      lr.abort("def.unexpected_eof", "end of file inside NETS");
    }
    if (declared_nets >= 0 && nets_seen != declared_nets) {
      lr.error("def.net_count_mismatch",
               "NETS declared " + std::to_string(declared_nets) + " but " +
                   std::to_string(nets_seen) + " found");
    }
  } catch (const ParseAbort&) {
    // Diagnostics already recorded; fall through to the failure return.
  }

  if (sink.num_errors() > errors_before) return parse_failure(sink);
  OBS_COUNT("ingest.def_components", nl.num_cells());
  OBS_COUNT("ingest.def_nets", nl.num_nets());
  return DefDesign{std::move(nl), std::move(routes), die, 0};
}

route::RouteDB to_route_db(const DefDesign& def, geom::Dbu gcell_size) {
  route::RouteDB db;
  db.grid = route::GridGeometry(def.die, gcell_size);
  db.routes = def.routes;
  db.routes.resize(static_cast<std::size_t>(def.netlist.num_nets()));
  for (netlist::NetId n = 0; n < def.netlist.num_nets(); ++n) {
    auto& nr = db.routes[static_cast<std::size_t>(n)];
    nr.net = n;
    nr.pin_access.clear();
    for (const netlist::PinRef& p : def.netlist.net(n).pins) {
      route::PinAccess pa;
      pa.pin = p;
      pa.gcell = db.grid.gcell_of(def.netlist.pin_position(p));
      pa.top_layer = 1;
      nr.pin_access.push_back(pa);
    }
  }
  return db;
}

}  // namespace repro::lefdef
