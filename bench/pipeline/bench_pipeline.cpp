// bench_pipeline: the repository benchmark. See README.md for the
// workloads, the metrics and their bounds, and how to read a comparison.
//
//   bench_pipeline --workload NAME|all [--seed N] [--seconds S]
//                  [--scale X] [--min-reps N] [--setups N] [--traced]
//                  [--out FILE] [--trace-out FILE] [--work-dir DIR]
//                  [--expected FILE]
//   bench_pipeline --compare A.json B.json [--bench-json FILE]
//   bench_pipeline --smoke [--bench-json FILE] [--work-dir DIR] [--out FILE]
//
// Exit codes: 0 success; 1 a failed operation, a digest mismatch, a
// failed smoke assertion, or (with --compare) a regression; 2 usage.
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/json_scan.hpp"
#include "common/json_writer.hpp"
#include "common/parallel.hpp"
#include "common/simd.hpp"
#include "common/subprocess.hpp"
#include "workloads.hpp"

namespace {

using namespace bench_pipeline;
using repro::common::JsonObject;
using repro::common::JsonValue;
namespace fs = std::filesystem;

struct Args {
  std::string workload = "all";
  RunOptions run;
  std::string out;
  std::string trace_out;
  std::string expected = BENCH_EXPECTED_DIGESTS;
  std::string bench_json = "BENCHMARK.json";
  std::vector<std::string> compare;
  bool smoke = false;
};

[[noreturn]] void usage(const std::string& error) {
  std::fprintf(stderr,
               "error: %s\nusage: bench_pipeline --workload NAME|all "
               "[--seed N] [--seconds S] [--scale X] [--min-reps N] "
               "[--setups N] [--traced] [--out FILE] [--trace-out FILE] "
               "[--work-dir DIR] [--expected FILE]\n"
               "       bench_pipeline --compare A.json B.json "
               "[--bench-json FILE]\n"
               "       bench_pipeline --smoke [--bench-json FILE] "
               "[--work-dir DIR] [--out FILE]\n",
               error.c_str());
  std::exit(2);
}

double parse_number(const std::string& flag, const std::string& s, double lo,
                    double hi) {
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (s.empty() || end != s.c_str() + s.size() || !(v >= lo && v <= hi)) {
    usage(flag + " expects a number in [" + std::to_string(lo) + ", " +
          std::to_string(hi) + "], got '" + s + "'");
  }
  return v;
}

Args parse_args(int argc, char** argv) {
  Args a;
  a.run.work_dir = "bench_pipeline_work";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(flag + " expects a value");
      return argv[++i];
    };
    if (flag == "--workload") {
      a.workload = value();
    } else if (flag == "--seed") {
      a.run.seed = static_cast<std::uint64_t>(
          parse_number(flag, value(), 0, 4294967295.0));
    } else if (flag == "--seconds") {
      a.run.seconds = parse_number(flag, value(), 0, 3600);
    } else if (flag == "--scale") {
      a.run.scale = parse_number(flag, value(), 0.01, 4);
    } else if (flag == "--min-reps") {
      a.run.min_reps = static_cast<int>(parse_number(flag, value(), 1, 1000));
    } else if (flag == "--setups") {
      a.run.setups = static_cast<int>(parse_number(flag, value(), 1, 20));
    } else if (flag == "--traced") {
      a.run.traced = true;
    } else if (flag == "--out") {
      a.out = value();
    } else if (flag == "--trace-out") {
      a.trace_out = value();
    } else if (flag == "--work-dir") {
      a.run.work_dir = value();
    } else if (flag == "--expected") {
      a.expected = value();
    } else if (flag == "--bench-json") {
      a.bench_json = value();
    } else if (flag == "--compare") {
      a.compare = {value(), value()};
    } else if (flag == "--smoke") {
      a.smoke = true;
    } else {
      usage("unknown flag " + flag);
    }
  }
  bool known = a.workload == "all";
  for (const std::string& w : workload_names()) known = known || w == a.workload;
  if (!known) usage("unknown workload '" + a.workload + "'");
  return a;
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

repro::common::StatusOr<JsonValue> load_json(const std::string& path) {
  if (!fs::exists(path)) {
    return repro::common::Status::NotFound("no such file: " + path);
  }
  return repro::common::parse_json(read_file(path));
}

/// Re-renders a parsed document (numbers keep their original token).
std::string render(const JsonValue& v) {
  switch (v.kind) {
    case JsonValue::Kind::kNull: return "null";
    case JsonValue::Kind::kBool: return v.boolean ? "true" : "false";
    case JsonValue::Kind::kNumber:
      return v.raw_number.empty() ? repro::common::json_num(v.number)
                                  : v.raw_number;
    case JsonValue::Kind::kString: return repro::common::json_str(v.str);
    case JsonValue::Kind::kArray: {
      std::vector<std::string> items;
      for (const JsonValue& x : v.items) items.push_back(render(x));
      return repro::common::json_array(items);
    }
    case JsonValue::Kind::kObject: {
      JsonObject obj;
      for (const auto& [k, x] : v.members) obj.field_raw(k, render(x));
      return obj.str();
    }
  }
  return "null";
}

/// Host fingerprint recorded in every result file.
std::string host_json(const Args& a) {
  const int threads = bench_threads();
  return JsonObject()
      .field("usable_cpus", repro::common::usable_cpus())
      .field("simd", repro::common::simd::to_string(
                         repro::common::simd::active()))
      .field("compiler", BENCH_COMPILER)
      .field("cxx_flags", BENCH_CXX_FLAGS)
      .field("build_type", BENCH_BUILD_TYPE)
      .field("threads", threads)
      .field("oversubscribed", threads > repro::common::usable_cpus())
      .field("seed", static_cast<unsigned long>(a.run.seed))
      .field("seconds", a.run.seconds)
      .str();
}

std::string result_json(const WorkloadResult& r) {
  JsonObject metrics;
  for (const Metric& m : r.metrics) {
    metrics.field_raw(m.name, JsonObject()
                                  .field("value", m.value)
                                  .field("unit", m.unit)
                                  .field("n", m.n)
                                  .field("q1", m.q1)
                                  .field("q3", m.q3)
                                  .str());
  }
  JsonObject detail;
  for (const auto& [k, v] : r.detail) detail.field(k, v);
  return JsonObject()
      .field("workload", r.workload)
      .field("scale", r.scale)
      .field("threads", r.threads)
      .field("attempted", static_cast<long>(r.attempted))
      .field("failed", static_cast<long>(r.failed))
      .field("fail_frac", r.attempted > 0 ? static_cast<double>(r.failed) /
                                                static_cast<double>(r.attempted)
                                          : 1.0)
      .field("digest", hex64(r.digest))
      .field_raw("metrics", metrics.str())
      .field_raw("detail", detail.str())
      .str();
}

std::string file_json(const Args& a, const std::vector<std::string>& results) {
  return JsonObject()
      .field("bench", "bench_pipeline")
      .field("mode", a.run.traced ? "traced" : "untraced")
      .field_raw("host", host_json(a))
      .field_raw("workloads", repro::common::json_array(results))
      .str();
}

void print_workload(const WorkloadResult& r) {
  std::printf("%s (scale %g, %" PRId64 " ops, %" PRId64 " failed, digest %s)\n",
              r.workload.c_str(), r.scale, r.attempted, r.failed,
              hex64(r.digest).c_str());
  for (const Metric& m : r.metrics) {
    std::printf("  %-40s %14.6g %-8s n=%-4d q1=%-12.6g q3=%.6g\n",
                m.name.c_str(), m.value, m.unit.c_str(), m.n, m.q1, m.q3);
  }
  for (const auto& [name, v] : r.detail) {
    std::printf("  %-40s %14.6g (detail)\n", name.c_str(), v);
  }
}

std::optional<std::uint64_t> expected_digest(const Args& a,
                                             const std::string& workload,
                                             double scale) {
  auto doc = load_json(a.expected);
  if (!doc.ok()) return std::nullopt;
  if (const JsonValue* list = doc->find("digests")) {
    for (const JsonValue& e : list->items) {
      if (e.get_string("workload") == workload &&
          std::fabs(e.get_double("scale") - scale) < 1e-9 &&
          e.get_u64("seed") == a.run.seed) {
        return std::strtoull(e.get_string("digest").c_str(), nullptr, 16);
      }
    }
  }
  return std::nullopt;
}

/// One workload in this process.
int run_one(const Args& a) {
  RunOptions opt = a.run;
  opt.workload = a.workload;
  const double scale = opt.scale > 0 ? opt.scale : default_scale(a.workload);
  opt.expected_digest = expected_digest(a, a.workload, scale);
  const WorkloadResult r = run_workload(opt);
  const std::string file = file_json(a, {result_json(r)});
  if (!a.out.empty() && !repro::common::write_json_file(a.out, file)) return 1;
  if (!a.trace_out.empty() &&
      !repro::common::write_json_file(a.trace_out, r.trace_json)) {
    return 1;
  }
  print_workload(r);
  if (opt.expected_digest && *opt.expected_digest != r.digest) {
    std::fprintf(stderr, "%s: digest %s, expected %s\n", r.workload.c_str(),
                 hex64(r.digest).c_str(), hex64(*opt.expected_digest).c_str());
  }
  return r.failed == 0 ? 0 : 1;
}

/// Every workload, each in its own process (so setup_s and rss_peak_mb
/// belong to one workload), merged into one result file and one trace.
int run_all(const Args& a, const std::string& self, JsonValue* merged_out) {
  fs::create_directories(a.run.work_dir);
  std::vector<std::string> results;
  std::vector<std::string> events;
  int rc = 0;
  for (std::size_t wi = 0; wi < workload_names().size(); ++wi) {
    const std::string& w = workload_names()[wi];
    const std::string base = (fs::path(a.run.work_dir) / ("all-" + w)).string();
    repro::common::SpawnOptions so;
    so.argv = {self, "--workload", w, "--seed", std::to_string(a.run.seed),
               "--seconds", std::to_string(a.run.seconds), "--min-reps",
               std::to_string(a.run.min_reps), "--setups",
               std::to_string(a.run.setups), "--work-dir", a.run.work_dir,
               "--expected", a.expected, "--out", base + ".json"};
    if (a.run.scale > 0) {
      so.argv.insert(so.argv.end(), {"--scale", std::to_string(a.run.scale)});
    }
    if (a.run.traced) {
      so.argv.insert(so.argv.end(),
                     {"--traced", "--trace-out", base + ".trace.json"});
    }
    auto proc = repro::common::Subprocess::spawn(so);
    if (!proc.ok()) {
      std::fprintf(stderr, "error: %s\n", proc.status().to_string().c_str());
      return 1;
    }
    const repro::common::WaitStatus ws = proc->wait();
    if (!ws.exited || ws.exit_code != 0) {
      std::fprintf(stderr, "error: workload %s: %s\n", w.c_str(),
                   ws.to_string().c_str());
      rc = 1;
    }
    auto doc = load_json(base + ".json");
    const JsonValue* list = doc.ok() ? doc->find("workloads") : nullptr;
    if (!list) {
      rc = 1;
      continue;
    }
    for (const JsonValue& r : list->items) results.push_back(render(r));
    auto trace = load_json(base + ".trace.json");
    if (const JsonValue* ev = trace.ok() ? trace->find("traceEvents") : nullptr) {
      for (JsonValue e : ev->items) {
        for (auto& [k, v] : e.members) {
          if (k == "pid") v.raw_number = std::to_string(wi);
        }
        events.push_back(render(e));
      }
    }
    fs::remove(base + ".json");
    fs::remove(base + ".trace.json");
  }
  const std::string file = file_json(a, results);
  if (!a.out.empty() && !repro::common::write_json_file(a.out, file)) return 1;
  if (!a.trace_out.empty() &&
      !repro::common::write_json_file(
          a.trace_out, JsonObject()
                           .field("displayTimeUnit", "ms")
                           .field_raw("traceEvents",
                                      repro::common::json_array(events))
                           .str())) {
    return 1;
  }
  if (merged_out) *merged_out = *repro::common::parse_json(file);
  return rc;
}

/// Member `name` of workload result `w`'s metrics, or null.
const JsonValue* metric_of(const JsonValue& w, const std::string& name) {
  const JsonValue* metrics = w.find("metrics");
  return metrics ? metrics->find(name) : nullptr;
}

struct Bound {
  double bound = 0;
  bool lower_is_better = true;
};

/// end_to_end bounds from BENCHMARK.json.
std::map<std::string, Bound> load_bounds(const std::string& path) {
  std::map<std::string, Bound> out;
  auto doc = load_json(path);
  if (!doc.ok()) {
    std::fprintf(stderr, "error: %s: %s\n", path.c_str(),
                 doc.status().to_string().c_str());
    std::exit(2);
  }
  if (const JsonValue* e2e = doc->find("end_to_end")) {
    for (const JsonValue& m : e2e->items) {
      out[m.get_string("name")] = {m.get_double("bound"),
                                   m.get_string("better") == "lower"};
    }
  }
  return out;
}

const JsonValue* find_workload(const JsonValue& file, const std::string& w) {
  if (const JsonValue* list = file.find("workloads")) {
    for (const JsonValue& x : list->items) {
      if (x.get_string("workload") == w) return &x;
    }
  }
  return nullptr;
}

/// Judges every (workload, metric) pair of two result files against the
/// bounds: unresolved when either side's interquartile range (relative
/// to its median) is wider than the bound, regressed/improved when the
/// medians differ by more than the bound, unchanged otherwise. Any rise
/// in fail_frac is a regression. Returns 1 on any regression.
int compare(const Args& a) {
  const std::map<std::string, Bound> bounds = load_bounds(a.bench_json);
  auto lhs = load_json(a.compare[0]);
  auto rhs = load_json(a.compare[1]);
  if (!lhs.ok() || !rhs.ok()) {
    std::fprintf(stderr, "error: cannot read %s\n",
                 (!lhs.ok() ? a.compare[0] : a.compare[1]).c_str());
    return 2;
  }
  int regressions = 0;
  std::printf("%-10s %-12s %14s %14s %9s  %s\n", "workload", "metric", "A",
              "B", "change", "verdict");
  for (const std::string& w : workload_names()) {
    const JsonValue* wa = find_workload(*lhs, w);
    const JsonValue* wb = find_workload(*rhs, w);
    if (!wa || !wb) continue;
    for (const auto& [name, b] : bounds) {
      const JsonValue* ma = metric_of(*wa, name);
      const JsonValue* mb = metric_of(*wb, name);
      if (!ma || !mb) continue;
      const double va = ma->get_double("value");
      const double vb = mb->get_double("value");
      const auto spread = [](const JsonValue& m) {
        const double v = std::fabs(m.get_double("value"));
        return v > 0 ? (m.get_double("q3") - m.get_double("q1")) / v : 0.0;
      };
      const double change = va != 0 ? (vb - va) / std::fabs(va) : 0;
      const double worse = b.lower_is_better ? change : -change;
      const char* verdict = "unchanged";
      if (spread(*ma) > b.bound || spread(*mb) > b.bound) {
        verdict = "unresolved";
      } else if (worse > b.bound) {
        verdict = "regressed";
        ++regressions;
      } else if (worse < -b.bound) {
        verdict = "improved";
      }
      std::printf("%-10s %-12s %14.6g %14.6g %+8.2f%%  %s\n", w.c_str(),
                  name.c_str(), va, vb, 100 * change, verdict);
    }
    const double fa = wa->get_double("fail_frac");
    const double fb = wb->get_double("fail_frac");
    const char* verdict = fb > fa ? "regressed" : fb < fa ? "improved"
                                                          : "unchanged";
    if (fb > fa) ++regressions;
    std::printf("%-10s %-12s %14.6g %14.6g %9s  %s\n", w.c_str(), "fail_frac",
                fa, fb, "", verdict);
  }
  return regressions > 0 ? 1 : 0;
}

/// Names (and units) a result must carry: the BENCHMARK.json lists for
/// end_to_end (untraced) or per_layer (traced).
std::map<std::string, std::string> required_metrics(const std::string& path,
                                                    bool traced) {
  std::map<std::string, std::string> out;
  auto doc = load_json(path);
  if (!doc.ok()) return out;
  if (const JsonValue* list = doc->find(traced ? "per_layer" : "end_to_end")) {
    for (const JsonValue& m : list->items) {
      out[m.get_string("name")] = m.get_string("unit");
    }
  }
  return out;
}

/// Tier-1 smoke: all workloads tiny, once untraced and once traced; every
/// BENCHMARK.json metric present with its unit, no failed operation, and
/// the same digest on both passes.
int smoke(Args a, const std::string& self) {
  a.run.scale = 0.05;
  a.run.seconds = 0;
  a.run.min_reps = 1;
  a.run.setups = 1;
  const std::string out = a.out;
  int failures = 0;
  const auto check = [&](bool ok, const std::string& what) {
    if (!ok) {
      ++failures;
      std::fprintf(stderr, "SMOKE FAIL: %s\n", what.c_str());
    }
  };
  std::map<std::string, std::string> digest_of;
  for (const bool traced : {false, true}) {
    a.run.traced = traced;
    a.out = out.empty() ? "" : out + (traced ? ".traced" : "");
    a.trace_out.clear();
    JsonValue file;
    check(run_all(a, self, &file) == 0, traced ? "traced pass" : "untraced pass");
    const auto required = required_metrics(a.bench_json, traced);
    check(!required.empty(), "metric list from " + a.bench_json);
    for (const std::string& w : workload_names()) {
      const JsonValue* r = find_workload(file, w);
      check(r != nullptr, w + " result present");
      if (!r) continue;
      check(r->get_i64("failed") == 0 && r->get_i64("attempted") > 0,
            w + " operations all succeed");
      for (const auto& [name, unit] : required) {
        const JsonValue* m = metric_of(*r, name);
        check(m && m->get_string("unit") == unit,
              w + " metric " + name + " [" + unit + "]");
      }
      const std::string d = r->get_string("digest");
      if (traced) {
        check(digest_of[w] == d, w + " digest agrees across passes");
      }
      digest_of[w] = d;
    }
  }
  std::printf("smoke: %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}

/// Path of this executable, for re-spawning one process per workload.
std::string self_path(const char* argv0) {
  std::error_code ec;
  const fs::path p = fs::read_symlink("/proc/self/exe", ec);
  return ec ? std::string(argv0) : p.string();
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse_args(argc, argv);
    if (!a.compare.empty()) return compare(a);
    if (a.smoke) return smoke(a, self_path(argv[0]));
    if (a.workload == "all") return run_all(a, self_path(argv[0]), nullptr);
    return run_one(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
