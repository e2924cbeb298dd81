// Wire protocol of the esva serve daemon: line-delimited JSON requests and
// responses over a local stream socket (docs/SERVE.md has the full schema).
// One request line in, one response line out, in order. The same codec backs
// the journal's "spec" payloads (serve/journal.h) and the snapshot's VM
// lists (serve/snapshot.h), so a VmSpec round-trips through every durable
// format with one implementation.
//
// Exactness: doubles that must survive a write/replay cycle bit-for-bit
// (demands, profiles, energies) are encoded as C99 hexfloat *strings*
// ("0x1.8p+1"); the decoder accepts either a hexfloat string or a plain JSON
// number, so handwritten client requests stay ergonomic while daemon-emitted
// records round-trip exactly.

#pragma once

#include <cstdint>
#include <string>

#include "cluster/vm.h"
#include "core/fault_plan.h"
#include "util/json.h"
#include "util/types.h"

namespace esva::serve {

/// Operations a client can request.
enum class OpKind {
  kPlace,     ///< submit one VM request to the engine
  kRetire,    ///< early-terminate a VM (frees its capacity now)
  kAdvance,   ///< advance the engine frontier (fires due retries, GC)
  kFault,     ///< apply one fail/drain/recover event
  kStats,     ///< engine counters + energy; no state change, not journaled
  kSnapshot,  ///< force a durable snapshot now
  kDrain,     ///< end-of-stream: finish_stream + sync + snapshot
};

std::string to_string(OpKind op);

/// One decoded client request. `id` is an opaque client correlation token
/// echoed in the response when present.
struct Request {
  OpKind op = OpKind::kStats;
  bool has_id = false;
  long long id = 0;
  VmSpec vm;                            ///< kPlace
  VmId vm_id = 0;                       ///< kRetire
  Time to = 0;                          ///< kAdvance
  FaultEvent fault;                     ///< kFault
  bool with_assignment = false;         ///< kStats: include the vm->server map
};

/// A u64 (sequence number, seed, rng word) as a JSON string of its decimal
/// digits: a double-backed JSON number loses exactness past 2^53.
std::string u64_field(std::uint64_t value);

/// Inverse of u64_field on a required object member; throws
/// std::runtime_error("<context>: ...") when missing or malformed.
std::uint64_t require_u64(const json::Value& obj, const std::string& key,
                          const std::string& context);

/// Exact double encoding: a JSON string holding the C99 %a hexfloat.
std::string hex_double(double value);

/// hex_double appended in place — the journal hot path (encode_place_record
/// runs once per acked placement) avoids the temporary.
void append_hex_double(std::string& out, double value);

/// Accepts a plain JSON number or a hexfloat string; throws
/// std::runtime_error("<context>: ...") otherwise.
double number_or_hex(const json::Value& v, const std::string& context);

/// number_or_hex on a required object member.
double require_number_or_hex(const json::Value& obj, const std::string& key,
                             const std::string& context);

/// VmSpec as a JSON object: {"id","type","cpu","mem","start","end"} plus
/// "profile":[[cpu,mem],...] when profiled. Demands are hexfloat strings.
std::string encode_vm(const VmSpec& vm);

/// encode_vm appended in place (journal hot path).
void append_vm(std::string& out, const VmSpec& vm);

/// Inverse of encode_vm; also accepts plain numbers for the demands.
/// Validates VmSpec::valid() and throws std::runtime_error otherwise.
VmSpec decode_vm(const json::Value& obj, const std::string& context);

/// Serializes a request as one line (no trailing newline).
std::string encode_request(const Request& req);

/// Parses and validates one request line. Throws std::runtime_error with a
/// structured message on malformed JSON, unknown ops, or bad fields.
Request decode_request(const std::string& line);

}  // namespace esva::serve
