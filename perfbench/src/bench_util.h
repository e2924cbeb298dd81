// Shared helpers of esvabench, the benchmark program: monotonic timestamps,
// percentiles, peak-RSS probes, assignment digests, a tiny JSON object
// writer for the one result line each run prints, and argument parsing.

#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "util/types.h"

namespace esvabench {

/// CLOCK_MONOTONIC nanoseconds: the same clock Python's time.monotonic_ns()
/// reads, so the launcher's spawn stamp and the child's first-op stamp can be
/// subtracted across processes.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank percentile (q in [0,1]) of an unsorted sample; 0 when empty.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

inline double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

inline double max_of(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

/// Peak resident set (VmHWM) of a process, in MB; 0 if unreadable.
inline double peak_rss_mb(const std::string& pid = "self") {
  std::ifstream in("/proc/" + pid + "/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kb = 0.0;
      in >> kb;
      return kb / 1024.0;
    }
    std::string rest;
    std::getline(in, rest);
  }
  return 0.0;
}

/// FNV-1a over the assignment vector: the run's decision fingerprint.
inline std::string digest(const std::vector<esva::ServerId>& assignment) {
  std::uint64_t h = 1469598103934665603ULL;
  for (esva::ServerId s : assignment) {
    auto v = static_cast<std::uint64_t>(static_cast<std::int64_t>(s));
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 1099511628211ULL;
    }
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

inline std::string hexfloat(double x) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", x);
  return buf;
}

/// Flat JSON object builder (numbers, strings, bools, number arrays).
class JsonOut {
 public:
  JsonOut& num(const std::string& k, double v) {
    std::ostringstream s;
    s.precision(17);
    s << v;
    return raw(k, std::isfinite(v) ? s.str() : "null");
  }
  JsonOut& str(const std::string& k, const std::string& v) {
    std::string q = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') q += '\\';
      if (c == '\n') {
        q += "\\n";
        continue;
      }
      q += c;
    }
    return raw(k, q + "\"");
  }
  JsonOut& boolean(const std::string& k, bool v) {
    return raw(k, v ? "true" : "false");
  }
  JsonOut& array(const std::string& k, const std::vector<double>& v) {
    std::ostringstream s;
    s.precision(9);
    s << '[';
    for (std::size_t i = 0; i < v.size(); ++i) s << (i ? "," : "") << v[i];
    s << ']';
    return raw(k, s.str());
  }
  JsonOut& raw(const std::string& k, const std::string& v) {
    body_ += (body_.empty() ? "" : ",") + ("\"" + k + "\":") + v;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

/// Minimal `--key value` argument map.
class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i + 1 < argc; i += 2) {
      std::string k = argv[i];
      if (k.rfind("--", 0) == 0) values_[k.substr(2)] = argv[i + 1];
    }
  }
  std::string get(const std::string& k, const std::string& def = "") const {
    auto it = values_.find(k);
    return it == values_.end() ? def : it->second;
  }
  long long num(const std::string& k, long long def) const {
    auto it = values_.find(k);
    return it == values_.end() ? def : std::stoll(it->second);
  }

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace esvabench
