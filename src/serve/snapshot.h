// Durable snapshots of the esva serve daemon: the restorable live engine
// state (core/streaming.h EngineStateSnapshot) plus the pieces the engine
// cannot carry itself — the Rng's four
// state words and a config header validated on restore. One JSON document
// per file, written atomically (tmp + fsync + rename + directory fsync) so a
// crash mid-snapshot leaves the previous snapshot intact.
//
// A snapshot costs O(live state), not O(uptime): the daemon's vm -> server
// history (its assignment map) is NOT in it, and the engine holds no
// resolution history (the daemon takes each op's resolutions as it applies
// the op). The history lives in the journal — every record carries its own
// decision and its "resolved" pairs (serve/journal.h) — and recovery
// rebuilds the history by folding the records the snapshot covers. Format 2; a reader
// refuses any other version.
//
// Exactness rules (docs/FORMATS.md#snapshot): every double rides as a C99
// hexfloat string (bit-exact round trip, so the restored engine's cumulative
// energy compares == against WAL checksums); every u64 (seed, sequence
// numbers, rng words) rides as a decimal string, because a double-backed
// JSON number cannot carry 64 bits.
//
// A restored daemon replays the WAL records with seq > wal_seq on top of the
// snapshot — snapshotting just bounds replay work; it never changes state.

#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "core/streaming.h"

namespace esva::serve {

struct SnapshotData {
  // --- identity (validated against the daemon's own config on restore) ----
  std::string allocator;
  std::uint64_t seed = 0;
  std::size_t num_servers = 0;
  /// Last WAL sequence number applied into this snapshot; recovery replays
  /// strictly-greater records.
  std::uint64_t wal_seq = 0;

  /// Live engine state.
  EngineStateSnapshot engine;
  /// xoshiro256** words (Rng::state), restoring the policy's random stream.
  std::array<std::uint64_t, 4> rng{};
};

std::string encode_snapshot(const SnapshotData& snap);

/// Throws std::runtime_error on malformed or version-mismatched input.
SnapshotData decode_snapshot(const std::string& text);

/// Atomic durable write: <path>.tmp + fsync + rename + fsync(dirname).
void write_snapshot_atomic(const std::string& path, const SnapshotData& snap);

/// Loads and decodes; `found` reports whether the file existed (absent is
/// not an error — a daemon's first run has no snapshot).
SnapshotData load_snapshot(const std::string& path, bool* found);

}  // namespace esva::serve
