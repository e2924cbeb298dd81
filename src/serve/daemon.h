// The esva serve daemon: a long-running scheduler wrapping a PlacementEngine
// behind the line-delimited JSON wire protocol (serve/wire.h), durable via a
// write-ahead journal (serve/journal.h) and periodic snapshots
// (serve/snapshot.h).
//
// One op path: every journaled op (place, retire, advance, fault, drain)
// reaches the engine through Daemon::apply, which runs the engine call and
// takes the resolutions the op produced (PlacementEngine::take_resolutions,
// so the engine never holds more than one op's). A live op is apply, then
// the history rule, then the journal append, then the ack
// (append-after-apply; the fsync schedule is WalWriter's). A replayed record
// is apply, then a check of the outcome against the record, then the
// history rule. drain() is the drain op through the live path, then a sync
// and a snapshot.
//
// Durability: each journal record carries the op's whole effect on the
// vm -> server history — the engine resolutions it produced ("resolved")
// and its own outcome — and one rule (record_history) folds it: the
// resolved pairs, then the op's own place or retire. Snapshots hold only
// live state (O(live VMs), not O(uptime)). A restarted daemon loads the
// latest snapshot (if any), folds the journal records it covers through
// that rule from their journaled outcomes, and *re-runs the engine* over
// the records after it — the same deterministic policy with the same seed
// reproduces every decision bit-for-bit, and the journal's recorded
// outcomes (chosen server, cumulative energy as hexfloat, resolved pairs)
// are verified as replay-fidelity checksums. `stats --assignment` is
// therefore the full history — every VM ever placed — live and after any
// restart. tests/test_serve.cpp pins that a daemon-fed stream — including
// one SIGKILLed and restarted mid-stream — produces assignments and total
// energy byte-identical to the same workload through `esva stream`
// (sim/replay.cpp).
//
// The engine runs serving_engine_options (core/streaming.h), the
// configuration replay_stream uses; fault events arrive as client ops
// through PlacementEngine::apply_fault instead of a pre-bound plan, which
// runs the identical per-event code path.
//
// Threading: the daemon is single-threaded; serve_loop multiplexes
// connections with poll() and handles one request at a time, so the engine
// needs no locking and responses are totally ordered.

#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/allocator.h"
#include "core/streaming.h"
#include "serve/journal.h"
#include "serve/wire.h"
#include "util/rng.h"

namespace esva::serve {

struct DaemonOptions {
  std::string allocator = "min-incremental";
  std::uint64_t seed = 42;
  /// Write-ahead journal path; required.
  std::string wal_path;
  /// Snapshot path; empty disables snapshots (recovery then replays the
  /// whole journal).
  std::string snapshot_path;
  /// Journal fsync batching (WalWriter): 1 = every op durable before its
  /// ack, N = group commit of N.
  int wal_sync_every = 1;
  /// Auto-snapshot after this many journaled ops (0 = only on explicit
  /// snapshot/drain ops). Needs snapshot_path.
  std::uint64_t snapshot_every = 0;
  /// Deferred-retry configuration, forwarded to the engine. Recorded in the
  /// journal header and validated on recovery.
  RetryPolicy retry;
  CostOptions cost;
  Energy migration_cost_per_gib = 25.0;
};

class Daemon {
 public:
  /// Builds the engine and runs recovery: snapshot restore (if one exists),
  /// the assignment-history fold of the journal records it covers, then
  /// journal replay of every record past it, with checksum verification.
  /// Throws std::runtime_error on header/config mismatches, a journal that
  /// ends before the snapshot's wal_seq, mid-journal corruption, or replay
  /// divergence.
  Daemon(std::vector<ServerSpec> servers, DaemonOptions options);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Handles one request line, returns one response line (never throws —
  /// failures become {"ok":false,...} responses). A journal append/sync
  /// failure (ENOSPC, EIO) is NOT an ordinary op error: the engine already
  /// applied the op, so in-memory state is ahead of the durable journal and
  /// replay could no longer reproduce it. The daemon then halts — the
  /// failing op gets its error response, every later line is refused, and
  /// serve_loop exits — matching the refuse-to-serve-on-divergence
  /// philosophy of recovery.
  std::string handle_line(const std::string& line);

  /// Non-empty once a journal write failed and the daemon refuses further
  /// ops (the message explains why).
  const std::string& fatal_error() const { return fatal_; }
  bool halted() const { return !fatal_.empty(); }

  /// End-of-stream drain: the drain op (finish_stream) through the live op
  /// path, then sync + snapshot. The wire-level drain op calls this.
  void drain();

  /// Durability checkpoint without draining: journal sync + snapshot (when
  /// configured). Called on graceful shutdown — deliberately NOT drain(), so
  /// a restarted daemon continues the stream with its retry queue intact.
  void checkpoint();

  /// Serves the wire protocol on a unix stream socket until `stop` becomes
  /// true (checked between poll rounds; flip it from a signal handler).
  /// `on_listening` fires once the socket accepts connections (tests).
  /// Returns 0 on a clean stop, 1 when the daemon halted on a journal
  /// failure (fatal_error() has the reason — do NOT checkpoint then, the
  /// snapshot would capture state the journal never recorded); throws on
  /// socket setup failures.
  int serve_loop(const std::string& socket_path, const std::atomic<bool>& stop,
                 const std::function<void()>& on_listening = {});

  // --- introspection (tests, stats op) ------------------------------------
  const PlacementEngine& engine() const { return *engine_; }
  const std::map<VmId, ServerId>& assignment() const { return assignment_; }
  std::uint64_t last_seq() const { return next_seq_ - 1; }
  /// Records re-run during recovery (only those past the snapshot) and
  /// whether a torn tail was dropped.
  std::uint64_t replayed_records() const { return replayed_; }
  bool recovered_torn_tail() const { return torn_tail_; }
  bool recovered_from_snapshot() const { return from_snapshot_; }
  /// `with_id`/`id`: echo the client's correlation token like every other
  /// response does.
  std::string stats_json(bool with_assignment, bool with_id = false,
                         long long id = 0) const;

 private:
  /// What applying one journaled op did to the engine.
  struct Outcome {
    /// place: the engine's decision (chosen server, reject); retire:
    /// `server` is the host the VM left; other ops: default (kNoServer).
    PlacementDecision decision;
    /// The engine resolutions the op produced (evacuation re-placements,
    /// retry placements, displacements left homeless), in engine order.
    std::vector<Resolution> resolved;
  };

  /// The one place a journaled op (place, retire, advance, fault, drain)
  /// reaches the engine — live, on replay and on drain: runs the engine call
  /// and takes the resolutions it produced. Throws std::logic_error for
  /// stats and snapshot.
  Outcome apply(const Request& op);
  /// The vm -> server history rule, for live ops, replayed records and the
  /// records a snapshot covers alike: the op's resolved pairs, then its own
  /// outcome (a place's chosen server; kNoServer for a retire).
  void record_history(const Request& op, ServerId chosen,
                      std::span<const Resolution> resolved);
  /// The live path: apply, record the history, journal the record.
  Outcome apply_and_journal(const Request& op);
  /// Recovery, records past the snapshot: apply, then check the recorded
  /// chosen / energy_hex / resolved against the re-run.
  void replay_record(const WalRecord& rec);
  void journal(const std::string& record);
  /// WalWriter::append / ::sync with halt-on-failure semantics: a throw
  /// records fatal_ (the engine is ahead of the journal) and rethrows.
  void wal_append(const std::string& record);
  void wal_sync();
  void do_snapshot();
  std::string dispatch(const Request& req);

  DaemonOptions options_;
  WalHeader header_;
  AllocatorPtr allocator_;
  std::unique_ptr<PlacementPolicy> policy_;
  Rng rng_;
  std::unique_ptr<PlacementEngine> engine_;
  std::unique_ptr<WalWriter> wal_;
  std::uint64_t next_seq_ = 1;
  std::map<VmId, ServerId> assignment_;
  std::uint64_t ops_since_snapshot_ = 0;
  std::uint64_t replayed_ = 0;
  bool torn_tail_ = false;
  bool from_snapshot_ = false;
  /// Set on the first journal write failure; the daemon refuses ops after.
  std::string fatal_;
};

}  // namespace esva::serve
