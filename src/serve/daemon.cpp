#include "serve/daemon.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include "baselines/registry.h"
#include "serve/snapshot.h"
#include "util/json.h"

namespace esva::serve {

namespace {

std::string error_response(const Request* req, const std::string& what) {
  std::string out = "{\"ok\":false";
  if (req && req->has_id) out += ",\"id\":" + std::to_string(req->id);
  out += ",\"error\":" + json::escape(what) + '}';
  return out;
}

std::string fmt_energy17(Energy e) {
  std::ostringstream out;
  out.precision(17);
  out << e;
  return out.str();
}

}  // namespace

Daemon::Daemon(std::vector<ServerSpec> servers, DaemonOptions options)
    : options_(std::move(options)), rng_(options_.seed) {
  if (options_.wal_path.empty())
    throw std::invalid_argument("serve: a --wal path is required");
  if (options_.snapshot_every > 0 && options_.snapshot_path.empty())
    throw std::invalid_argument(
        "serve: --snapshot-every needs a --snapshot path");

  header_.allocator = options_.allocator;
  header_.seed = options_.seed;
  header_.num_servers = servers.size();
  header_.retry = options_.retry;

  // replay_stream's engine configuration, so a daemon-fed stream is
  // byte-identical to `esva stream`. Fault events arrive as ops
  // (PlacementEngine::apply_fault), not a plan.
  allocator_ = make_allocator(options_.allocator);
  policy_ = allocator_->make_policy();
  if (!policy_)
    throw std::invalid_argument("allocator '" + options_.allocator +
                                "' is batch-only (no streaming policy)");
  engine_ = std::make_unique<PlacementEngine>(
      std::move(servers), *policy_, rng_,
      serving_engine_options(options_.cost, options_.retry,
                             options_.migration_cost_per_gib));

  // --- recovery: snapshot restore, history fold, then tail replay --------
  std::uint64_t applied = 0;
  if (!options_.snapshot_path.empty()) {
    bool found = false;
    const SnapshotData snap = load_snapshot(options_.snapshot_path, &found);
    if (found) {
      if (snap.allocator != header_.allocator || snap.seed != header_.seed ||
          snap.num_servers != header_.num_servers)
        throw std::runtime_error(
            "snapshot '" + options_.snapshot_path +
            "' was produced by a different daemon configuration "
            "(allocator/seed/fleet mismatch)");
      engine_->import_state(snap.engine);
      rng_.set_state(snap.rng);
      applied = snap.wal_seq;
      from_snapshot_ = true;
    }
  }

  const WalFile wal = read_wal(options_.wal_path);
  torn_tail_ = wal.torn_tail;
  if (wal.has_header) {
    if (wal.header.allocator != header_.allocator ||
        wal.header.seed != header_.seed ||
        wal.header.num_servers != header_.num_servers ||
        wal.header.retry.max_attempts != header_.retry.max_attempts ||
        wal.header.retry.base_delay != header_.retry.base_delay ||
        wal.header.retry.backoff != header_.retry.backoff ||
        wal.header.retry.queue_capacity != header_.retry.queue_capacity)
      throw std::runtime_error(
          "wal '" + options_.wal_path +
          "' was produced by a different daemon configuration "
          "(allocator/seed/fleet/retry mismatch)");
  } else if (from_snapshot_) {
    throw std::runtime_error("snapshot present but wal '" + options_.wal_path +
                             "' is missing or empty");
  }
  // The snapshot holds live state only; the assignment history of the
  // records it covers is folded from the journal, so every one of them must
  // still be there.
  const std::uint64_t last_seq =
      wal.records.empty() ? 0 : wal.records.back().seq;
  if (last_seq < applied)
    throw std::runtime_error(
        "wal '" + options_.wal_path + "' ends at seq " +
        std::to_string(last_seq) + " but the snapshot covers seq " +
        std::to_string(applied));
  for (const WalRecord& rec : wal.records) {
    if (rec.seq <= applied) {
      // The engine state is inside the snapshot; only the history is not.
      record_history(rec.req, rec.chosen, rec.resolved);
    } else {
      replay_record(rec);
      ++replayed_;
    }
  }
  next_seq_ = last_seq + 1;

  // A torn tail must be cut off before the O_APPEND writer reopens the
  // file, or the next record would be concatenated onto the torn bytes and
  // the merged line would read as mid-file corruption on the following
  // restart.
  if (wal.torn_tail) truncate_wal(options_.wal_path, wal.valid_bytes);

  wal_ = std::make_unique<WalWriter>(options_.wal_path, header_,
                                     options_.wal_sync_every);
}

Daemon::~Daemon() = default;

Daemon::Outcome Daemon::apply(const Request& op) {
  Outcome out;
  switch (op.op) {
    case OpKind::kPlace:
      out.decision = engine_->submit(op.vm);
      break;
    case OpKind::kRetire:
      out.decision.server = engine_->retire_vm(op.vm_id);
      break;
    case OpKind::kAdvance:
      engine_->advance_to(op.to);
      break;
    case OpKind::kFault:
      engine_->apply_fault(op.fault);
      break;
    case OpKind::kDrain:
      engine_->finish_stream();
      break;
    case OpKind::kStats:
    case OpKind::kSnapshot:
      throw std::logic_error("serve: " + to_string(op.op) +
                             " is not a journaled op");
  }
  out.resolved = engine_->take_resolutions();
  return out;
}

void Daemon::record_history(const Request& op, ServerId chosen,
                            std::span<const Resolution> resolved) {
  // A submit can drain due retries for *other* requests first, so the op's
  // resolutions land before its own outcome. A retire journals
  // "chosen":null, so last-write-wins over the journal resolves the VM to
  // kNoServer; the map does the same.
  for (const Resolution& r : resolved) assignment_[r.vm] = r.server;
  if (op.op == OpKind::kPlace)
    assignment_[op.vm.id] = chosen;
  else if (op.op == OpKind::kRetire)
    assignment_[op.vm_id] = kNoServer;
}

Daemon::Outcome Daemon::apply_and_journal(const Request& op) {
  Outcome out = apply(op);
  record_history(op, out.decision.server, out.resolved);
  const std::uint64_t seq = next_seq_;
  switch (op.op) {
    case OpKind::kPlace:
      journal(encode_place_record(seq, options_.allocator, op.vm, out.decision,
                                  engine_->total_energy(), out.resolved));
      break;
    case OpKind::kRetire:
      journal(encode_retire_record(seq, op.vm_id, out.decision.server,
                                   out.resolved));
      break;
    case OpKind::kAdvance:
      journal(encode_advance_record(seq, op.to, out.resolved));
      break;
    case OpKind::kFault:
      journal(encode_fault_record(seq, op.fault, out.resolved));
      break;
    case OpKind::kDrain:
      journal(encode_drain_record(seq, out.resolved));
      break;
    case OpKind::kStats:
    case OpKind::kSnapshot:
      break;  // apply() refused them
  }
  return out;
}

void Daemon::replay_record(const WalRecord& rec) {
  const Outcome out = apply(rec.req);
  const auto diverged = [&](const std::string& what) {
    return std::runtime_error("wal replay (seq " + std::to_string(rec.seq) +
                              "): " + what);
  };
  // Fidelity checksums: the deterministic re-run must land exactly where the
  // live run did — on the same server, at the same cumulative energy
  // (bit-exact, hence hexfloat), with the same resolutions entry for entry.
  // Divergence means the journal and the engine configuration no longer
  // agree; refusing to serve is the only safe answer.
  // (Ops other than place and retire have no server: kNoServer on both.)
  if (out.decision.server != rec.chosen)
    throw diverged(std::string("replay ") +
                   (rec.req.op == OpKind::kRetire ? "retired from" : "chose") +
                   " server " + std::to_string(out.decision.server) +
                   ", journal recorded " + std::to_string(rec.chosen));
  if (rec.has_energy && engine_->total_energy() != rec.energy_after)
    throw diverged("replay energy diverged from the journal");
  const auto same = [](const Resolution& a, const Resolution& b) {
    return a.vm == b.vm && a.server == b.server;
  };
  if (!std::equal(out.resolved.begin(), out.resolved.end(),
                  rec.resolved.begin(), rec.resolved.end(), same))
    throw diverged("replay's resolutions diverged from the journal's "
                   "resolved list (" +
                   std::to_string(out.resolved.size()) + " vs " +
                   std::to_string(rec.resolved.size()) + " entries)");
  record_history(rec.req, out.decision.server, out.resolved);
}

void Daemon::wal_append(const std::string& record) {
  try {
    wal_->append(record);
  } catch (const std::exception& e) {
    // The engine already applied the op this record describes: in-memory
    // state is now ahead of the durable journal, and every later record's
    // chosen/energy checksums would be computed from state a replay can
    // never reach. Serving on would be silent divergence — halt instead.
    fatal_ = std::string("journal append failed (") + e.what() +
             "); engine state is ahead of the durable journal, halting";
    throw std::runtime_error(fatal_);
  }
}

void Daemon::wal_sync() {
  try {
    wal_->sync();
  } catch (const std::exception& e) {
    fatal_ = std::string("journal sync failed (") + e.what() +
             "); acked records may not be durable, halting";
    throw std::runtime_error(fatal_);
  }
}

void Daemon::journal(const std::string& record) {
  wal_append(record);
  ++next_seq_;
  if (options_.snapshot_every > 0 &&
      ++ops_since_snapshot_ >= options_.snapshot_every)
    do_snapshot();
}

void Daemon::do_snapshot() {
  if (options_.snapshot_path.empty()) return;
  // Everything the snapshot claims as applied must be durable in the
  // journal first, or a crash between the two could leave a snapshot ahead
  // of its own journal.
  wal_sync();
  SnapshotData snap;
  snap.allocator = header_.allocator;
  snap.seed = header_.seed;
  snap.num_servers = header_.num_servers;
  snap.wal_seq = next_seq_ - 1;
  snap.engine = engine_->export_state();
  snap.rng = rng_.state();
  write_snapshot_atomic(options_.snapshot_path, snap);
  ops_since_snapshot_ = 0;
}

void Daemon::drain() {
  Request op;
  op.op = OpKind::kDrain;
  apply_and_journal(op);
  wal_sync();
  do_snapshot();
}

void Daemon::checkpoint() {
  wal_sync();
  do_snapshot();
}

std::string Daemon::stats_json(bool with_assignment, bool with_id,
                               long long id) const {
  const FaultStats& f = engine_->fault_stats();
  std::string out = "{\"ok\":true";
  if (with_id) out += ",\"id\":" + std::to_string(id);
  out += ",\"op\":\"stats\"";
  out += ",\"allocator\":" + json::escape(options_.allocator);
  out += ",\"requests\":" + std::to_string(engine_->requests());
  out += ",\"placed\":" + std::to_string(engine_->placed());
  out += ",\"active_vms\":" + std::to_string(engine_->cluster().active_vms());
  out += ",\"frontier\":" + std::to_string(engine_->cluster().frontier());
  out += ",\"energy\":" + fmt_energy17(engine_->total_energy());
  out += ",\"energy_hex\":" + hex_double(engine_->total_energy());
  out += ",\"peak_resident\":" +
         std::to_string(engine_->peak_resident_time_units());
  out += ",\"wal_seq\":" + u64_field(next_seq_ - 1);
  out += ",\"replayed\":" + std::to_string(replayed_);
  out += ",\"torn_tail_recovered\":";
  out += torn_tail_ ? "true" : "false";
  out += ",\"fault_events\":" + std::to_string(f.fault_events);
  out += ",\"late_arrivals\":" + std::to_string(f.late_arrivals);
  out += ",\"displaced\":" + std::to_string(f.displaced);
  out += ",\"evacuated\":" + std::to_string(f.evacuated);
  out += ",\"deferred\":" + std::to_string(f.deferred);
  out += ",\"retries\":" + std::to_string(f.retries);
  out += ",\"retried_placed\":" + std::to_string(f.retried_placed);
  out += ",\"rejected_final\":" + std::to_string(f.rejected_final);
  out += ",\"queue_full\":" + std::to_string(f.queue_full);
  out += ",\"downtime_units\":" + std::to_string(f.downtime_units);
  if (with_assignment) {
    out += ",\"assignment\":[";
    bool first = true;
    for (const auto& [vm, server] : assignment_) {
      if (!first) out += ',';
      first = false;
      out += '[' + std::to_string(vm) + ',' + std::to_string(server) + ']';
    }
    out += ']';
  }
  out += '}';
  return out;
}

std::string Daemon::dispatch(const Request& req) {
  std::string out = "{\"ok\":true";
  if (req.has_id) out += ",\"id\":" + std::to_string(req.id);
  out += ",\"op\":" + json::escape(to_string(req.op));
  switch (req.op) {
    case OpKind::kStats:
      return stats_json(req.with_assignment, req.has_id, req.id);
    case OpKind::kSnapshot:
      if (options_.snapshot_path.empty())
        throw std::runtime_error("daemon runs without a --snapshot path");
      do_snapshot();
      out += ",\"path\":" + json::escape(options_.snapshot_path);
      out += ",\"wal_seq\":" + u64_field(next_seq_ - 1);
      break;
    case OpKind::kDrain:
      drain();
      out += ",\"requests\":" + std::to_string(engine_->requests());
      out += ",\"placed\":" + std::to_string(engine_->placed());
      out += ",\"energy_hex\":" + hex_double(engine_->total_energy());
      out += ",\"frontier\":" +
             std::to_string(engine_->cluster().frontier());
      break;
    case OpKind::kPlace:
    case OpKind::kRetire:
    case OpKind::kAdvance:
    case OpKind::kFault: {
      const std::uint64_t seq = next_seq_;
      const PlacementDecision decision = apply_and_journal(req).decision;
      out += ",\"seq\":" + u64_field(seq);
      if (req.op == OpKind::kPlace || req.op == OpKind::kRetire) {
        out += ",\"vm\":" + std::to_string(req.op == OpKind::kPlace
                                                ? req.vm.id
                                                : req.vm_id);
        out += ",\"server\":";
        out += decision.server == kNoServer ? "null"
                                            : std::to_string(decision.server);
      }
      if (req.op == OpKind::kPlace)
        out += ",\"reject\":" + json::escape(esva::to_string(decision.reject));
      if (req.op == OpKind::kAdvance)
        out += ",\"frontier\":" +
               std::to_string(engine_->cluster().frontier());
      break;
    }
  }
  out += '}';
  return out;
}

std::string Daemon::handle_line(const std::string& line) {
  if (halted()) return error_response(nullptr, "daemon halted: " + fatal_);
  Request req;
  try {
    req = decode_request(line);
  } catch (const std::exception& e) {
    return error_response(nullptr, e.what());
  }
  try {
    return dispatch(req);
  } catch (const std::exception& e) {
    return error_response(&req, e.what());
  }
}

// ---------------------------------------------------------------------------
// Socket loop
// ---------------------------------------------------------------------------

namespace {

struct Connection {
  int fd = -1;
  std::string inbuf;
};

void write_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    // send(MSG_NOSIGNAL), not write(): a peer that closed its socket before
    // the response must surface as EPIPE, not terminate the daemon via the
    // default SIGPIPE disposition.
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // peer vanished; the connection is reaped on the next poll
    }
    off += static_cast<std::size_t>(n);
  }
}

}  // namespace

int Daemon::serve_loop(const std::string& socket_path,
                       const std::atomic<bool>& stop,
                       const std::function<void()>& on_listening) {
  sockaddr_un addr{};
  if (socket_path.size() >= sizeof(addr.sun_path))
    throw std::invalid_argument("socket path too long (" +
                                std::to_string(socket_path.size()) + " >= " +
                                std::to_string(sizeof(addr.sun_path)) + ")");
  const int listener = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listener < 0)
    throw std::runtime_error(std::string("socket() failed: ") +
                             std::strerror(errno));
  ::unlink(socket_path.c_str());  // a stale socket from a killed daemon
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  if (::bind(listener, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const int err = errno;
    ::close(listener);
    throw std::runtime_error("bind('" + socket_path +
                             "') failed: " + std::strerror(err));
  }
  if (::listen(listener, 16) != 0) {
    const int err = errno;
    ::close(listener);
    ::unlink(socket_path.c_str());
    throw std::runtime_error(std::string("listen() failed: ") +
                             std::strerror(err));
  }
  if (on_listening) on_listening();

  std::vector<Connection> conns;
  while (!stop.load(std::memory_order_relaxed)) {
    std::vector<pollfd> fds;
    fds.push_back({listener, POLLIN, 0});
    for (const Connection& c : conns) fds.push_back({c.fd, POLLIN, 0});
    const int ready = ::poll(fds.data(), fds.size(), /*timeout_ms=*/100);
    if (ready < 0) {
      if (errno == EINTR) continue;  // signal: re-check stop
      break;
    }
    if (ready == 0) continue;

    // fds[k + 1] pairs with conns[k] only while conns is untouched: scan
    // exactly the connections the pollfds were built from, mark dead ones,
    // and only compact / accept afterwards — erasing mid-scan would shift
    // survivors onto the wrong pollfd's revents (a blocking read() on an
    // idle socket), and accepting first would grow conns past fds.
    const std::size_t scanned = fds.size() - 1;
    for (std::size_t k = 0; k < scanned && !halted(); ++k) {
      const short revents = fds[k + 1].revents;
      if (!(revents & (POLLIN | POLLHUP | POLLERR))) continue;
      Connection& c = conns[k];
      char buf[4096];
      const ssize_t n = ::read(c.fd, buf, sizeof(buf));
      if (n <= 0 && !(n < 0 && errno == EINTR)) {
        ::close(c.fd);
        c.fd = -1;  // compacted below
        continue;
      }
      if (n <= 0) continue;  // EINTR
      c.inbuf.append(buf, static_cast<std::size_t>(n));
      std::size_t nl;
      while ((nl = c.inbuf.find('\n')) != std::string::npos) {
        std::string line = c.inbuf.substr(0, nl);
        c.inbuf.erase(0, nl + 1);
        if (!line.empty() && line.back() == '\r') line.pop_back();
        if (line.empty()) continue;
        write_all(c.fd, handle_line(line) + "\n");
        if (halted()) break;  // journal failure: stop accepting ops
      }
    }
    conns.erase(std::remove_if(conns.begin(), conns.end(),
                               [](const Connection& c) { return c.fd < 0; }),
                conns.end());
    if (halted()) break;
    if (fds[0].revents & POLLIN) {
      const int fd = ::accept(listener, nullptr, nullptr);
      if (fd >= 0) conns.push_back({fd, {}});
    }
  }
  for (const Connection& c : conns) ::close(c.fd);
  ::close(listener);
  ::unlink(socket_path.c_str());
  return halted() ? 1 : 0;
}

}  // namespace esva::serve
