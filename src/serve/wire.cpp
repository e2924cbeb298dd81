#include "serve/wire.h"

#include <cstdio>
#include <cstring>
#include <limits>
#include <optional>
#include <stdexcept>

#include "util/parse.h"

namespace esva::serve {

std::string to_string(OpKind op) {
  switch (op) {
    case OpKind::kPlace:
      return "place";
    case OpKind::kRetire:
      return "retire";
    case OpKind::kAdvance:
      return "advance";
    case OpKind::kFault:
      return "fault";
    case OpKind::kStats:
      return "stats";
    case OpKind::kSnapshot:
      return "snapshot";
    case OpKind::kDrain:
      return "drain";
  }
  return "?";
}

std::string u64_field(std::uint64_t value) {
  std::string out(1, '"');
  out += std::to_string(value);
  out += '"';
  return out;
}

std::uint64_t require_u64(const json::Value& obj, const std::string& key,
                          const std::string& context) {
  const json::Value* v = obj.find(key);
  if (!v || v->kind != json::Value::Kind::String)
    throw std::runtime_error(context + ": missing string field '" + key + "'");
  return parse_u64_field(v->string, context + " field '" + key + "'");
}

void append_hex_double(std::string& out, double value) {
  // Hand-rolled glibc-compatible "%a" for finite normals and zero —
  // "0x1.<frac, trailing zeros trimmed>p<sign><decimal exp>" — because
  // snprintf dominates the per-record journal encode cost (three hexfloats
  // per place record; the BENCH_perf.json "wal" gate bounds the whole
  // journal path at <= 5% over the unjournaled loop). Subnormals,
  // infinities and NaNs take the snprintf path; round-tripping via strtod
  // is exact either way.
  std::uint64_t bits;
  std::memcpy(&bits, &value, sizeof bits);
  const std::uint64_t frac = bits & ((std::uint64_t{1} << 52) - 1);
  const int rawexp = static_cast<int>((bits >> 52) & 0x7ff);
  if (rawexp == 0x7ff || (rawexp == 0 && frac != 0)) {
    char buf[64];
    const int n = std::snprintf(buf, sizeof(buf), "\"%a\"", value);
    out.append(buf, static_cast<std::size_t>(n));
    return;
  }
  char buf[32];
  char* p = buf;
  *p++ = '"';
  if (bits >> 63) *p++ = '-';
  *p++ = '0';
  *p++ = 'x';
  *p++ = rawexp == 0 ? '0' : '1';  // rawexp == 0 here means +-0.0
  if (frac != 0) {
    static constexpr char kHex[] = "0123456789abcdef";
    *p++ = '.';
    int digits = 13;
    for (std::uint64_t f = frac; (f & 0xf) == 0; f >>= 4) --digits;
    for (int i = 0; i < digits; ++i)
      *p++ = kHex[(frac >> (48 - 4 * i)) & 0xf];
  }
  *p++ = 'p';
  const int exp = rawexp == 0 ? 0 : rawexp - 1023;
  *p++ = exp < 0 ? '-' : '+';
  unsigned mag = exp < 0 ? static_cast<unsigned>(-exp)
                         : static_cast<unsigned>(exp);
  char rev[8];
  int n = 0;
  do {
    rev[n++] = static_cast<char>('0' + mag % 10);
    mag /= 10;
  } while (mag != 0);
  while (n > 0) *p++ = rev[--n];
  *p++ = '"';
  out.append(buf, static_cast<std::size_t>(p - buf));
}

std::string hex_double(double value) {
  std::string out;
  append_hex_double(out, value);
  return out;
}

double number_or_hex(const json::Value& v, const std::string& context) {
  if (v.kind == json::Value::Kind::Number) return v.number;
  if (v.kind == json::Value::Kind::String)
    return parse_double_field(v.string, context);
  throw std::runtime_error(context + ": expected a number or hexfloat string");
}

double require_number_or_hex(const json::Value& obj, const std::string& key,
                             const std::string& context) {
  const json::Value* v = obj.find(key);
  if (!v)
    throw std::runtime_error(context + ": missing field '" + key + "'");
  return number_or_hex(*v, context + " field '" + key + "'");
}

namespace {

Time require_time(const json::Value& obj, const std::string& key,
                  const std::string& context) {
  return static_cast<Time>(json::require_integer(
      obj, key, std::numeric_limits<Time>::min(),
      std::numeric_limits<Time>::max(), context));
}

}  // namespace

void append_vm(std::string& out, const VmSpec& vm) {
  out += "{\"id\":";
  out += std::to_string(vm.id);
  if (!vm.type_name.empty()) {
    out += ",\"type\":";
    out += json::escape(vm.type_name);
  }
  out += ",\"cpu\":";
  append_hex_double(out, vm.demand.cpu);
  out += ",\"mem\":";
  append_hex_double(out, vm.demand.mem);
  out += ",\"start\":";
  out += std::to_string(vm.start);
  out += ",\"end\":";
  out += std::to_string(vm.end);
  if (vm.has_profile()) {
    out += ",\"profile\":[";
    for (std::size_t k = 0; k < vm.profile.size(); ++k) {
      if (k > 0) out += ',';
      out += '[';
      append_hex_double(out, vm.profile[k].cpu);
      out += ',';
      append_hex_double(out, vm.profile[k].mem);
      out += ']';
    }
    out += ']';
  }
  out += '}';
}

std::string encode_vm(const VmSpec& vm) {
  std::string out;
  out.reserve(160);
  append_vm(out, vm);
  return out;
}

VmSpec decode_vm(const json::Value& obj, const std::string& context) {
  if (obj.kind != json::Value::Kind::Object)
    throw std::runtime_error(context + ": vm must be a JSON object");
  VmSpec vm;
  vm.id = static_cast<VmId>(json::require_integer(
      obj, "id", 0, std::numeric_limits<VmId>::max(), context));
  if (const json::Value* t = obj.find("type");
      t && t->kind == json::Value::Kind::String)
    vm.type_name = t->string;
  vm.demand.cpu = require_number_or_hex(obj, "cpu", context);
  vm.demand.mem = require_number_or_hex(obj, "mem", context);
  vm.start = require_time(obj, "start", context);
  vm.end = require_time(obj, "end", context);
  if (const json::Value* p = obj.find("profile"); p && !p->is_null()) {
    if (p->kind != json::Value::Kind::Array)
      throw std::runtime_error(context + ": profile must be an array");
    std::vector<Resources> profile;
    profile.reserve(p->array.size());
    for (const json::Value& entry : p->array) {
      if (entry.kind != json::Value::Kind::Array || entry.array.size() != 2)
        throw std::runtime_error(context +
                                 ": profile entries are [cpu,mem] pairs");
      profile.push_back(
          Resources{number_or_hex(entry.array[0], context + " profile cpu"),
                    number_or_hex(entry.array[1], context + " profile mem")});
    }
    vm.set_profile(std::move(profile));
  }
  if (!vm.valid())
    throw std::runtime_error(context + ": invalid vm spec (interval or "
                                       "demands malformed)");
  return vm;
}

std::string encode_request(const Request& req) {
  std::string out = "{\"op\":" + json::escape(to_string(req.op));
  if (req.has_id) out += ",\"id\":" + std::to_string(req.id);
  switch (req.op) {
    case OpKind::kPlace:
      out += ",\"vm\":" + encode_vm(req.vm);
      break;
    case OpKind::kRetire:
      out += ",\"vm\":" + std::to_string(req.vm_id);
      break;
    case OpKind::kAdvance:
      out += ",\"to\":" + std::to_string(req.to);
      break;
    case OpKind::kFault:
      out += ",\"at\":" + std::to_string(req.fault.at);
      out += ",\"kind\":" + json::escape(esva::to_string(req.fault.kind));
      out += ",\"server\":" + std::to_string(req.fault.server);
      break;
    case OpKind::kStats:
      if (req.with_assignment) out += ",\"assignment\":true";
      break;
    case OpKind::kSnapshot:
    case OpKind::kDrain:
      break;
  }
  out += '}';
  return out;
}

Request decode_request(const std::string& line) {
  const json::Value root = json::parse(line);
  if (root.kind != json::Value::Kind::Object)
    throw std::runtime_error("request must be a JSON object");
  const std::string& op = json::require_string(root, "op", "request");

  Request req;
  if (const json::Value* id = root.find("id"); id && !id->is_null()) {
    req.id = json::require_integer(root, "id",
                                   std::numeric_limits<long long>::min(),
                                   std::numeric_limits<long long>::max(),
                                   "request");
    req.has_id = true;
  }

  if (op == "place") {
    req.op = OpKind::kPlace;
    const json::Value* vm = root.find("vm");
    if (!vm) throw std::runtime_error("place: missing field 'vm'");
    req.vm = decode_vm(*vm, "place vm");
  } else if (op == "retire") {
    req.op = OpKind::kRetire;
    req.vm_id = static_cast<VmId>(json::require_integer(
        root, "vm", 0, std::numeric_limits<VmId>::max(), "retire"));
  } else if (op == "advance") {
    req.op = OpKind::kAdvance;
    req.to = require_time(root, "to", "advance");
  } else if (op == "fault") {
    req.op = OpKind::kFault;
    req.fault.at = require_time(root, "at", "fault");
    const std::string& kind = json::require_string(root, "kind", "fault");
    const std::optional<FaultKind> parsed = parse_fault_kind(kind);
    if (!parsed)
      throw std::runtime_error("fault: unknown kind '" + kind +
                               "' (fail|drain|recover)");
    req.fault.kind = *parsed;
    req.fault.server = static_cast<ServerId>(json::require_integer(
        root, "server", 0, std::numeric_limits<ServerId>::max(), "fault"));
  } else if (op == "stats") {
    req.op = OpKind::kStats;
    if (const json::Value* a = root.find("assignment");
        a && a->kind == json::Value::Kind::Bool)
      req.with_assignment = a->boolean;
  } else if (op == "snapshot") {
    req.op = OpKind::kSnapshot;
  } else if (op == "drain") {
    req.op = OpKind::kDrain;
  } else {
    throw std::runtime_error(
        "unknown op '" + op +
        "' (place|retire|advance|fault|stats|snapshot|drain)");
  }
  return req;
}

}  // namespace esva::serve
