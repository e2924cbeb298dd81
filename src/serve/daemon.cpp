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

std::string u64_field(std::uint64_t v) { return "\"" + std::to_string(v) + "\""; }

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

  // The engine mirrors replay_stream's configuration exactly (sim/replay.cpp)
  // so a daemon-fed stream is byte-identical to `esva stream`: grow-on-demand
  // horizon, auto-advance GC, energy accounting, tolerated stragglers. Fault
  // events arrive as ops (PlacementEngine::apply_fault), not a plan.
  allocator_ = make_allocator(options_.allocator);
  policy_ = allocator_->make_policy();
  if (!policy_)
    throw std::invalid_argument("allocator '" + options_.allocator +
                                "' is batch-only (no streaming policy)");
  EngineOptions eopts;
  eopts.initial_horizon = 0;
  eopts.auto_advance = true;
  eopts.account_energy = true;
  eopts.cost = options_.cost;
  eopts.tolerate_late_arrivals = true;
  eopts.faults = nullptr;
  eopts.retry = options_.retry;
  eopts.migration_cost_per_gib = options_.migration_cost_per_gib;
  engine_ = std::make_unique<PlacementEngine>(std::move(servers), *policy_,
                                              rng_, eopts);

  // --- recovery: snapshot restore, then journal replay past it ------------
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
      for (const auto& [vm, server] : snap.assignment)
        assignment_[vm] = server;
      resolutions_applied_ = engine_->resolutions().size();
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
  std::uint64_t last_seq = applied;
  for (const WalRecord& rec : wal.records) {
    last_seq = rec.seq;
    if (rec.seq <= applied) continue;  // already inside the snapshot
    replay_record(rec);
    ++replayed_;
  }
  next_seq_ = std::max(applied, last_seq) + 1;

  // A torn tail must be cut off before the O_APPEND writer reopens the
  // file, or the next record would be concatenated onto the torn bytes and
  // the merged line would read as mid-file corruption on the following
  // restart.
  if (wal.torn_tail) truncate_wal(options_.wal_path, wal.valid_bytes);

  wal_ = std::make_unique<WalWriter>(options_.wal_path, header_,
                                     options_.wal_sync_every);
}

Daemon::~Daemon() = default;

PlacementDecision Daemon::apply_place(const VmSpec& vm) {
  const PlacementDecision decision = engine_->submit(vm);
  // A submit can drain due retries for *other* requests first; fold those
  // resolutions in before recording this request's own outcome.
  sync_resolutions();
  assignment_[vm.id] = decision.server;
  return decision;
}

ServerId Daemon::apply_retire(VmId vm) {
  const ServerId host = engine_->retire_vm(vm);
  sync_resolutions();
  // Trace semantics: a retire journals "chosen":null, so last-write-wins
  // over the journal resolves this VM to kNoServer — mirror that here.
  assignment_[vm] = kNoServer;
  return host;
}

void Daemon::replay_record(const WalRecord& rec) {
  const std::string where = "wal replay (seq " + std::to_string(rec.seq) + ")";
  switch (rec.op) {
    case WalRecord::Op::kPlace: {
      const PlacementDecision decision = apply_place(rec.vm);
      // Fidelity checksums: the deterministic re-run must land exactly where
      // the live run did — on the same server, at the same cumulative
      // energy (bit-exact, hence hexfloat). Divergence means the journal
      // and the engine configuration no longer agree; refusing to serve is
      // the only safe answer.
      if (decision.server != rec.chosen)
        throw std::runtime_error(
            where + ": replay chose server " +
            std::to_string(decision.server) + ", journal recorded " +
            std::to_string(rec.chosen));
      if (rec.has_energy && engine_->total_energy() != rec.energy_after)
        throw std::runtime_error(where +
                                 ": replay energy diverged from the journal");
      break;
    }
    case WalRecord::Op::kRetire: {
      const ServerId host = apply_retire(rec.vm_id);
      if (host != rec.chosen)
        throw std::runtime_error(
            where + ": replay retired from server " + std::to_string(host) +
            ", journal recorded " + std::to_string(rec.chosen));
      break;
    }
    case WalRecord::Op::kAdvance:
      engine_->advance_to(rec.to);
      sync_resolutions();
      break;
    case WalRecord::Op::kFault:
      engine_->apply_fault(rec.fault);
      sync_resolutions();
      break;
    case WalRecord::Op::kDrain:
      engine_->finish_stream();
      sync_resolutions();
      break;
  }
}

void Daemon::sync_resolutions() {
  const std::vector<Resolution>& rs = engine_->resolutions();
  for (; resolutions_applied_ < rs.size(); ++resolutions_applied_)
    assignment_[rs[resolutions_applied_].vm] = rs[resolutions_applied_].server;
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
  snap.assignment.assign(assignment_.begin(), assignment_.end());
  write_snapshot_atomic(options_.snapshot_path, snap);
  ops_since_snapshot_ = 0;
}

void Daemon::drain() {
  engine_->finish_stream();
  sync_resolutions();
  journal(encode_drain_record(next_seq_));
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
    case OpKind::kPlace: {
      const PlacementDecision decision = apply_place(req.vm);
      const std::uint64_t seq = next_seq_;
      journal(encode_place_record(seq, options_.allocator, req.vm, decision,
                                  engine_->total_energy()));
      out += ",\"seq\":" + u64_field(seq);
      out += ",\"vm\":" + std::to_string(req.vm.id);
      out += ",\"server\":";
      out += decision.server == kNoServer ? "null"
                                          : std::to_string(decision.server);
      out += ",\"reject\":" + json::escape(esva::to_string(decision.reject));
      break;
    }
    case OpKind::kRetire: {
      const ServerId host = apply_retire(req.vm_id);
      const std::uint64_t seq = next_seq_;
      journal(encode_retire_record(seq, req.vm_id, host));
      out += ",\"seq\":" + u64_field(seq);
      out += ",\"vm\":" + std::to_string(req.vm_id);
      out += ",\"server\":";
      out += host == kNoServer ? "null" : std::to_string(host);
      break;
    }
    case OpKind::kAdvance: {
      engine_->advance_to(req.to);
      sync_resolutions();
      const std::uint64_t seq = next_seq_;
      journal(encode_advance_record(seq, req.to));
      out += ",\"seq\":" + u64_field(seq);
      out += ",\"frontier\":" +
             std::to_string(engine_->cluster().frontier());
      break;
    }
    case OpKind::kFault: {
      engine_->apply_fault(req.fault);
      sync_resolutions();
      const std::uint64_t seq = next_seq_;
      journal(encode_fault_record(seq, req.fault));
      out += ",\"seq\":" + u64_field(seq);
      break;
    }
    case OpKind::kStats:
      return stats_json(req.with_assignment, req.has_id, req.id);
    case OpKind::kSnapshot: {
      if (options_.snapshot_path.empty())
        throw std::runtime_error("daemon runs without a --snapshot path");
      do_snapshot();
      out += ",\"path\":" + json::escape(options_.snapshot_path);
      out += ",\"wal_seq\":" + u64_field(next_seq_ - 1);
      break;
    }
    case OpKind::kDrain: {
      drain();
      out += ",\"requests\":" + std::to_string(engine_->requests());
      out += ",\"placed\":" + std::to_string(engine_->placed());
      out += ",\"energy_hex\":" + hex_double(engine_->total_energy());
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
