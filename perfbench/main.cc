// perfbench: runs one benchmark workload and prints its result as one JSON
// line on stdout (diagnostics go to stderr).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--work-dir <dir>]
//
// --trace 0 reports the end-to-end metrics; --trace 1 is the separate
// traced run that reports the per-layer metrics. See README.md.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workload.h"

namespace {

int Usage(const char* argv0) {
  std::string names;
  for (const std::string& n : perfbench::WorkloadNames()) names += " " + n;
  std::fprintf(stderr,
               "usage: %s --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--work-dir <dir>]\n"
               "workloads:%s\n",
               argv0, names.c_str());
  return 2;
}

bool ParseUint(const char* text, uint64_t* out) {
  char* end = nullptr;
  if (text[0] == '-') return false;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') return false;
  *out = v;
  return true;
}

// JSON number with all its digits.
std::string Number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  std::string workload;
  uint64_t seed = 0, seconds = 0, trace = 2;
  bool have_seed = false;
  cfg.work_dir = ".";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage(argv[0]);
    const char* val = argv[++i];
    if (arg == "--workload") {
      workload = val;
    } else if (arg == "--seed") {
      if (!ParseUint(val, &seed)) return Usage(argv[0]);
      have_seed = true;
    } else if (arg == "--seconds") {
      if (!ParseUint(val, &seconds) || seconds == 0 || seconds > 600)
        return Usage(argv[0]);
    } else if (arg == "--trace") {
      if (!ParseUint(val, &trace) || trace > 1) return Usage(argv[0]);
    } else if (arg == "--work-dir") {
      cfg.work_dir = val;
    } else {
      return Usage(argv[0]);
    }
  }
  cfg.spec = perfbench::FindWorkload(workload);
  if (cfg.spec == nullptr || !have_seed || seconds == 0 || trace > 1) {
    return Usage(argv[0]);
  }
  cfg.seed = seed;
  cfg.seconds = static_cast<double>(seconds);
  cfg.trace = trace == 1;

  const perfbench::Outcome out = perfbench::Run(cfg);
  if (!out.first_error.empty()) {
    std::fprintf(stderr, "first error: %s\n", out.first_error.c_str());
  }
  if (out.metrics.empty()) return 1;  // set-up failed: nothing was measured
  std::string json = "{\"correct\": ";
  json += out.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < out.metrics.size(); ++i) {
    const perfbench::Metric& m = out.metrics[i];
    if (i > 0) json += ", ";
    json += "\"" + Escape(m.name) + "\": {\"value\": " + Number(m.value) +
            ", \"unit\": \"" + Escape(m.unit) + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
