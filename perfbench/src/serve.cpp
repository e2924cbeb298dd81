// serve-mixed: the `esva serve` daemon as its own process behind its unix
// socket, journaling every op with the daemon's default sync policy (an
// fsync per op, which run.py elides as tmpfs would; perfbench/README.md),
// snapshotting at a fixed cadence, retries on. One generator thread drives
// one connection open-loop through a ladder of fixed rates; the op mix is
// place (bulk), retire of live VMs, stats reads (not journaled) and a seeded
// fail/recover fault schedule. This is the only workload that crosses the
// wire codec, the journal, snapshots, the poll loop, evacuation and the
// retry drain.
//
// After the ladder the daemon is SIGKILLed and restarted on its WAL and
// snapshot (recovery time), and the whole op sequence is replayed into an
// in-process serve::Daemon, timing Daemon::handle_line per op: final
// energy_hex and assignment must match the socket daemon's before and after
// the restart. The traced run additionally splits those times per op kind
// and times decode_request, WalWriter append/sync and explicit snapshots.

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <sys/vfs.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <stdexcept>

#include "bench_util.h"
#include "cluster/catalog.h"
#include "cluster/datacenter.h"
#include "reference.h"
#include "serve/daemon.h"
#include "serve/journal.h"
#include "serve/wire.h"
#include "util/json.h"
#include "workload/arrival_stream.h"
#include "workload/trace.h"
#include "workloads.h"

namespace esvabench {

namespace {

namespace serve = esva::serve;

// --- workload definition ---------------------------------------------------
// The fleet, the op mix and the rate ladder are fixed here, chosen once from
// the measured capacity of the seed code: 14-24k ops/s on a 4-vCPU host with
// the journal flush elided, so 5000/s passes with margin even when the host
// runs slow and 40000/s always overloads the daemon. Every rung sends
// rate x share x seconds ops; kReference is the rung whose latencies are
// reported, kLimitUs the p99 limit a rung must meet to count toward the max
// rate, and the daemon's peak RSS is read before kOverload, whose backlog
// fills the socket buffers. The arrival rate keeps ~800 VMs live on 500
// servers.
constexpr int kServers = 500;
constexpr double kInterarrival = 0.06;
constexpr esva::Time kMaxDuration = 150;  // 3x the mean duration
constexpr std::uint64_t kSnapshotEvery = 1000;
constexpr int kRetryMax = 3;
struct Rung {
  double rate;   ///< ops per second
  double share;  ///< fraction of --seconds the rung lasts
};
constexpr Rung kRungs[] = {{1000, 0.1}, {2000, 0.5}, {5000, 0.1},
                           {40000, 0.025}};
constexpr std::size_t kReference = 1;
constexpr std::size_t kOverload = 3;
constexpr std::size_t kWindowOps = 1000;
constexpr double kLimitUs = 100000.0;
constexpr int kRestarts = 3;
constexpr int kStarts = 9;

const char* const kSocket = "d.sock";
const char* const kWal = "d.wal";
const char* const kSnapshot = "d.snap";
const char* const kServersCsv = "servers.csv";

struct Op {
  std::string line;
  serve::OpKind kind;
};

/// The seeded op sequence: place 80% (exponential durations, mean 50,
/// capped at kMaxDuration), retire of a live VM 8%, stats 10%,
/// fault 2% (fail a random up server, or recover the oldest failed one;
/// at most three down at once). Ops carry their index as the wire id.
std::vector<Op> generate_ops(std::uint64_t seed, std::size_t count) {
  esva::Rng rng(seed ^ 0x5e77e5eedULL);
  esva::WorkloadConfig config;
  config.num_vms = static_cast<int>(count);
  config.mean_interarrival = kInterarrival;
  config.mean_duration = 50.0;
  config.vm_types = esva::all_vm_types();
  esva::Rng vm_rng(seed);
  esva::PoissonArrivalStream arrivals(config, vm_rng);
  std::vector<esva::VmSpec> live;
  std::vector<esva::ServerId> failed;
  esva::Time frontier = 1;
  std::vector<Op> ops;
  ops.reserve(count);
  while (ops.size() < count) {
    serve::Request req;
    req.has_id = true;
    req.id = static_cast<long long>(ops.size());
    const double u = rng.next_double();
    // Ended VMs are no longer live; prune them lazily.
    std::erase_if(live, [&](const esva::VmSpec& vm) { return vm.end <= frontier; });
    if (u < 0.80 || (u < 0.88 && live.empty())) {
      req.op = serve::OpKind::kPlace;
      req.vm = *arrivals.next();
      // Durations are capped so that no single long VM sets how far ahead
      // the daemon's timelines reach, and with it the daemon's memory.
      req.vm.end = std::min(req.vm.end, req.vm.start + kMaxDuration - 1);
      frontier = req.vm.start;
      live.push_back(req.vm);
    } else if (u < 0.88) {
      req.op = serve::OpKind::kRetire;
      const auto k = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      req.vm_id = live[k].id;
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
    } else if (u < 0.98) {
      req.op = serve::OpKind::kStats;
    } else {
      req.op = serve::OpKind::kFault;
      req.fault.at = frontier;
      if (!failed.empty() && (failed.size() >= 3 || rng.next_double() < 0.5)) {
        req.fault.kind = esva::FaultKind::kRecover;
        req.fault.server = failed.front();
        failed.erase(failed.begin());
      } else {
        esva::ServerId s;
        do {
          s = static_cast<esva::ServerId>(rng.uniform_int(0, kServers - 1));
        } while (std::find(failed.begin(), failed.end(), s) != failed.end());
        req.fault.kind = esva::FaultKind::kFail;
        req.fault.server = s;
        failed.push_back(s);
      }
    }
    ops.push_back({serve::encode_request(req), req.op});
  }
  return ops;
}

// --- the daemon process ------------------------------------------------------

/// One `esva serve` child in the working directory; killed and reaped by
/// stop() or the destructor.
class DaemonProcess {
 public:
  DaemonProcess(const std::string& esva, std::uint64_t seed) {
    const std::string seed_s = std::to_string(seed);
    const std::string every = std::to_string(kSnapshotEvery);
    const std::string retry = std::to_string(kRetryMax);
    std::vector<std::string> argv = {
        esva,         "serve",          "--servers",    kServersCsv,
        "--socket",   kSocket,          "--wal",        kWal,
        "--snapshot", kSnapshot,        "--snapshot-every", every,
        "--retry-max", retry,           "--seed",       seed_s};
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      const int log = ::open("daemon.log", O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (log >= 0) {
        ::dup2(log, 1);
        ::dup2(log, 2);
      }
      std::vector<char*> cargv;
      for (std::string& a : argv) cargv.push_back(a.data());
      cargv.push_back(nullptr);
      ::execv(cargv[0], cargv.data());
      ::_exit(127);
    }
  }
  ~DaemonProcess() { stop(SIGKILL); }
  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;

  pid_t pid() const { return pid_; }
  /// Signals the daemon and waits until it has exited.
  void stop(int sig) {
    if (pid_ <= 0) return;
    ::kill(pid_, sig);
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
  }

 private:
  pid_t pid_ = -1;
};

/// Blocking line exchange over the socket (set-up, stats, recovery probes).
class Connection {
 public:
  /// Connects, retrying until the daemon listens or `timeout_s` passes.
  Connection(double timeout_s, const DaemonProcess& daemon) {
    const std::int64_t deadline = now_ns() + std::int64_t(timeout_s * 1e9);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, kSocket, sizeof(addr.sun_path) - 1);
    while (true) {
      fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
      if (fd_ < 0) throw std::runtime_error("socket() failed");
      if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                    sizeof(addr)) == 0)
        return;
      ::close(fd_);
      fd_ = -1;
      int status = 0;
      if (::waitpid(daemon.pid(), &status, WNOHANG) == daemon.pid())
        throw std::runtime_error("daemon exited during start-up (daemon.log)");
      if (now_ns() > deadline)
        throw std::runtime_error("daemon did not start listening");
      ::usleep(200);
    }
  }
  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  int fd() const { return fd_; }
  std::string& inbuf() { return inbuf_; }

  std::string call(const std::string& line) {
    const std::string data = line + "\n";
    std::size_t off = 0;
    while (off < data.size()) {
      const ssize_t n =
          ::send(fd_, data.data() + off, data.size() - off, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n < 0) throw std::runtime_error("daemon hung up");
      off += static_cast<std::size_t>(n);
    }
    std::size_t nl;
    while ((nl = inbuf_.find('\n')) == std::string::npos) {
      char buf[65536];
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error("daemon hung up");
      inbuf_.append(buf, static_cast<std::size_t>(n));
    }
    std::string out = inbuf_.substr(0, nl);
    inbuf_.erase(0, nl + 1);
    return out;
  }

 private:
  int fd_ = -1;
  std::string inbuf_;
};

bool response_ok(const std::string& r) { return r.rfind("{\"ok\":true", 0) == 0; }

long long response_id(const std::string& r) {
  const std::size_t at = r.find("\"id\":");
  return at == std::string::npos ? -1 : std::atoll(r.c_str() + at + 5);
}

/// The comparable outcome of a stats response: energy_hex + assignment.
struct Outcome {
  std::string energy_hex;
  std::vector<esva::ServerId> assignment;  ///< in vm-id order
  bool operator==(const Outcome&) const = default;
};

Outcome outcome(const std::string& stats) {
  const esva::json::Value v = esva::json::parse(stats);
  const esva::json::Value* energy = v.find("energy_hex");
  const esva::json::Value* assignment = v.find("assignment");
  if (!energy || !assignment) throw std::runtime_error("malformed stats");
  Outcome out;
  out.energy_hex = energy->string;
  for (const esva::json::Value& pair : assignment->array)
    out.assignment.push_back(pair.array.at(1).kind == esva::json::Value::Kind::Null
                                 ? esva::kNoServer
                                 : static_cast<esva::ServerId>(pair.array.at(1).number));
  return out;
}

const char* const kStatsWithAssignment = "{\"op\":\"stats\",\"assignment\":true}";

// --- the open-loop generator -----------------------------------------------

struct RungResult {
  double rate = 0.0;
  std::vector<double> latency_us;  ///< response time - due time, per op
  std::vector<double> late_us;     ///< write time - due time, per op
  std::size_t backlog_max = 0;
  bool backlog_grew = false;
  double achieved_ops_s = 0.0;
  std::size_t errors = 0;
  bool passed = false;
};

/// Sends ops [begin, end) at `rate` on a fixed schedule that never waits
/// for the daemon, draining responses in the same poll loop (the daemon's
/// write_all blocks once the socket buffer is full, so a generator that
/// only wrote would deadlock it).
RungResult run_rung(Connection& conn, const std::vector<Op>& ops,
                    std::size_t begin, std::size_t end, double rate) {
  RungResult r;
  r.rate = rate;
  const std::size_t n = end - begin;
  r.latency_us.assign(n, 0.0);
  r.late_us.assign(n, 0.0);
  std::vector<std::size_t> backlog(n, 0);
  // The generator sleeps until each op is due: without this, the default
  // 50 us timer slack would let it send each op up to 50 us late.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  const int fd = conn.fd();
  const int flags = ::fcntl(fd, F_GETFL);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  std::string& inbuf = conn.inbuf();
  std::string out;
  std::size_t out_off = 0, next = 0, received = 0;
  const double period_ns = 1e9 / rate;
  const std::int64_t start = now_ns() + 1000000;  // first op due in 1 ms
  auto due = [&](std::size_t k) { return start + std::int64_t(period_ns * double(k)); };
  const std::int64_t give_up = due(n) + std::int64_t(60e9);
  while (received < n) {
    std::int64_t now = now_ns();
    if (now > give_up) {
      r.errors += n - received;
      break;
    }
    while (next < n && due(next) <= now) {
      out += ops[begin + next].line;
      out += '\n';
      r.late_us[next] = double(now - due(next)) / 1e3;
      backlog[next] = next - received;
      ++next;
    }
    if (out_off < out.size()) {
      const ssize_t w = ::send(fd, out.data() + out_off, out.size() - out_off,
                               MSG_NOSIGNAL);
      if (w > 0) out_off += static_cast<std::size_t>(w);
      if (w < 0 && errno != EAGAIN && errno != EINTR) {
        r.errors += n - received;
        break;
      }
      if (out_off == out.size()) {
        out.clear();
        out_off = 0;
      }
    }
    now = now_ns();
    std::int64_t wait_ns = next < n ? std::max<std::int64_t>(0, due(next) - now)
                                    : 50000000;
    pollfd p{fd, short(POLLIN | (out_off < out.size() ? POLLOUT : 0)), 0};
    const timespec ts{wait_ns / 1000000000, wait_ns % 1000000000};
    if (::ppoll(&p, 1, &ts, nullptr) <= 0) continue;
    if (!(p.revents & (POLLIN | POLLHUP | POLLERR))) continue;
    char buf[65536];
    const ssize_t got = ::recv(fd, buf, sizeof(buf), 0);
    if (got == 0 || (got < 0 && errno != EAGAIN && errno != EINTR)) {
      r.errors += n - received;
      break;
    }
    if (got < 0) continue;
    const std::int64_t at = now_ns();
    inbuf.append(buf, static_cast<std::size_t>(got));
    std::size_t nl, pos = 0;
    while (received < n && (nl = inbuf.find('\n', pos)) != std::string::npos) {
      const std::string line = inbuf.substr(pos, nl - pos);
      pos = nl + 1;
      const long long id = response_id(line);
      if (id != static_cast<long long>(begin + received) || !response_ok(line))
        ++r.errors;
      r.latency_us[received] = double(at - due(received)) / 1e3;
      ++received;
    }
    inbuf.erase(0, pos);
  }
  ::fcntl(fd, F_SETFL, flags);
  ::prctl(PR_SET_TIMERSLACK, 0UL, 0UL, 0UL, 0UL);  // back to the default
  r.achieved_ops_s = double(received) / (double(now_ns() - start) / 1e9);
  for (std::size_t k : backlog) r.backlog_max = std::max(r.backlog_max, k);
  // A growing backlog: over the rung, the ops waiting for a response rose
  // by more than arrive within one latency limit.
  const std::size_t q = std::max<std::size_t>(1, n / 4);
  double head = 0.0, tail = 0.0;
  for (std::size_t k = 0; k < q; ++k) {
    head += double(backlog[k]) / double(q);
    tail += double(backlog[n - 1 - k]) / double(q);
  }
  r.backlog_grew = tail - head > rate * kLimitUs / 1e6;
  r.passed = r.errors == 0 && !r.backlog_grew &&
             percentile(r.latency_us, 0.99) <= kLimitUs;
  return r;
}

/// The reference rung, sent as consecutive windows of kWindowOps ops with
/// the host-speed reference timed between them (the daemon idles then, all
/// responses in), so each window's latencies can be scaled by the host's
/// speed at that moment. Returns the whole rung; `window_p50_us` and
/// `window_ref_ms` get one entry per window.
RungResult run_windows(Connection& conn, const std::vector<Op>& ops,
                       std::size_t begin, std::size_t end, double rate,
                       std::vector<double>& window_p50_us,
                       std::vector<double>& window_ref_ms) {
  RungResult all;
  all.rate = rate;
  all.passed = true;
  double busy_s = 0.0;
  double before = reference_ms();
  for (std::size_t lo = begin; lo < end; lo += kWindowOps) {
    const std::size_t hi = std::min(end, lo + kWindowOps);
    const RungResult w = run_rung(conn, ops, lo, hi, rate);
    const double after = reference_ms();
    window_p50_us.push_back(percentile(w.latency_us, 0.5));
    window_ref_ms.push_back((before + after) / 2.0);
    before = after;
    all.latency_us.insert(all.latency_us.end(), w.latency_us.begin(),
                          w.latency_us.end());
    all.late_us.insert(all.late_us.end(), w.late_us.begin(), w.late_us.end());
    all.backlog_max = std::max(all.backlog_max, w.backlog_max);
    all.backlog_grew = all.backlog_grew || w.backlog_grew;
    all.errors += w.errors;
    all.passed = all.passed && w.passed;
    busy_s += double(hi - lo) / w.achieved_ops_s;
  }
  all.achieved_ops_s = double(end - begin) / busy_s;
  return all;
}

/// The journal's file system: "tmpfs", or the statfs magic number.
std::string fs_type() {
  struct statfs s {};
  if (::statfs(".", &s) != 0) return "unknown";
  if (s.f_type == 0x01021994) return "tmpfs";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%lx", static_cast<unsigned long>(s.f_type));
  return buf;
}

}  // namespace

int serve_mixed(const Args& args) {
  const std::uint64_t seed = static_cast<std::uint64_t>(args.num("seed", 1));
  const double seconds = double(args.num("seconds", 20));
  const bool traced = args.num("trace", 0) != 0;
  const std::string esva = args.get("esva");
  const std::int64_t t0 = args.num("t0-ns", now_ns());

  // --- inputs ---------------------------------------------------------------
  std::vector<std::size_t> bounds = {0};
  for (const Rung& rung : kRungs)
    bounds.push_back(bounds.back() + static_cast<std::size_t>(
                                         rung.rate * rung.share * seconds));
  const std::vector<Op> ops = generate_ops(seed, bounds.back());
  esva::save_server_trace(kServersCsv,
                          esva::make_scaled_fleet(
                              kServers, esva::all_server_types(), 1.0));
  const double inputs_s = double(now_ns() - t0) / 1e9;
  const double setup_ref_ms = reference_ms();

  JsonOut out;
  std::string error;
  auto fail = [&](const std::string& why) {
    if (error.empty()) error = why;
  };
  auto clear_state = [] {
    for (const char* f : {kWal, kSnapshot}) std::filesystem::remove(f);
  };

  // --- set-up: daemon start on an empty journal, median of kStarts --------
  std::vector<double> starts;
  for (int i = 0; i < kStarts; ++i) {
    clear_state();
    const std::int64_t spawn = now_ns();
    DaemonProcess d(esva, seed);
    Connection c(30.0, d);
    if (!response_ok(c.call("{\"op\":\"stats\"}"))) fail("stats refused");
    starts.push_back(double(now_ns() - spawn) / 1e9);
  }
  clear_state();
  out.num("setup_s", inputs_s + percentile(starts, 0.5));

  // --- the rate ladder --------------------------------------------------------
  std::vector<RungResult> rungs;
  std::vector<double> window_p50_us, window_ref_ms;
  std::string live_stats;
  {
    DaemonProcess d(esva, seed);
    Connection c(30.0, d);
    for (std::size_t i = 0; i < std::size(kRungs); ++i) {
      if (i == kOverload)
        out.num("peak_rss_mb", peak_rss_mb(std::to_string(d.pid())));
      rungs.push_back(i == kReference
                          ? run_windows(c, ops, bounds[i], bounds[i + 1],
                                        kRungs[i].rate, window_p50_us,
                                        window_ref_ms)
                          : run_rung(c, ops, bounds[i], bounds[i + 1],
                                     kRungs[i].rate));
    }
    live_stats = c.call(kStatsWithAssignment);
    // The destructor SIGKILLs: a crash stop, so recovery replays the WAL
    // past the last snapshot.
  }
  const Outcome live = outcome(live_stats);
  const esva::json::Value final_stats = esva::json::parse(live_stats);
  // Requests the scheduler finally turned away count as failed ops too.
  std::size_t failed =
      static_cast<std::size_t>(final_stats.find("rejected_final")->number);
  double max_rate = 0.0;
  std::string ladder;
  for (const RungResult& r : rungs) {
    failed += r.errors;
    if (r.passed) max_rate = std::max(max_rate, r.achieved_ops_s);
    ladder += (ladder.empty() ? "" : " ") + std::to_string(int(r.rate)) +
              (r.passed ? ":pass" : ":fail") + "(p99 " +
              std::to_string(int(percentile(r.latency_us, 0.99))) + "us, " +
              std::to_string(int(r.achieved_ops_s)) + "/s)";
  }
  const RungResult& ref = rungs[kReference];
  out.num("ops_per_s", max_rate);
  out.array("latency_us", ref.latency_us);
  out.str("ladder", ladder);
  out.str("journal_fs", fs_type());
  out.num("setup_ref_ms", setup_ref_ms);
  out.num("host_ref_ms", sum(window_ref_ms) / double(window_ref_ms.size()));
  out.array("window_p50_us", window_p50_us);
  out.array("window_ref_ms", window_ref_ms);

  // --- recovery: restart on the run's WAL + snapshot -------------------------
  std::vector<double> recover_ms;
  double replayed = 0.0;
  for (int i = 0; i < kRestarts; ++i) {
    const std::int64_t spawn = now_ns();
    DaemonProcess d(esva, seed);
    Connection c(60.0, d);
    const std::string stats = c.call(kStatsWithAssignment);
    recover_ms.push_back(double(now_ns() - spawn) / 1e6);
    replayed = esva::json::parse(stats).find("replayed")->number;
    if (!(outcome(stats) == live))
      fail("state after restart differs from the live daemon's");
    if (i + 1 == kRestarts) d.stop(SIGTERM);
  }
  out.num("recover_ms", percentile(recover_ms, 0.5));

  // --- in-process replay of the same op sequence -------------------------------
  const std::vector<esva::ServerSpec> fleet =
      esva::load_server_trace(kServersCsv);
  std::vector<double> handle_us(ops.size(), 0.0);
  auto replay = [&](const std::string& tag, bool timed) {
    serve::DaemonOptions options;
    options.seed = seed;
    options.wal_path = "replay-" + tag + ".wal";
    options.snapshot_path = "replay-" + tag + ".snap";
    options.snapshot_every = kSnapshotEvery;
    options.retry.max_attempts = kRetryMax;
    std::filesystem::remove(options.wal_path);
    std::filesystem::remove(options.snapshot_path);
    auto daemon = std::make_unique<serve::Daemon>(fleet, options);
    const std::int64_t begin = now_ns();
    for (std::size_t k = 0; k < ops.size(); ++k) {
      const std::int64_t a = timed ? now_ns() : 0;
      const std::string r = daemon->handle_line(ops[k].line);
      if (timed) handle_us[k] = double(now_ns() - a) / 1e3;
      if (!response_ok(r)) fail("in-process replay refused op: " + r);
    }
    const double wall_s = double(now_ns() - begin) / 1e9;
    if (!(outcome(daemon->stats_json(true)) == live))
      fail("in-process replay differs from the socket daemon");
    return std::make_pair(std::move(daemon), wall_s);
  };
  // The traced run first replays without timing, for trace.overhead. The
  // check replay times every op: the daemon's own handling times, free of
  // the socket's wake-ups, give the workload's tail share.
  const double untimed_s = traced ? replay("untimed", false).second : 0.0;
  auto [daemon, timed_s] = replay("check", true);
  out.array("handle_us", handle_us);

  if (traced) {
    out.num("trace.overhead", timed_s / untimed_s - 1.0);
    const std::pair<const char*, serve::OpKind> kinds[] = {
        {"place", serve::OpKind::kPlace},
        {"retire", serve::OpKind::kRetire},
        {"stats", serve::OpKind::kStats},
        {"fault", serve::OpKind::kFault}};
    for (const auto& [name, kind] : kinds) {
      std::vector<double> us;
      for (std::size_t i = 0; i < ops.size(); ++i)
        if (ops[i].kind == kind) us.push_back(handle_us[i]);
      const std::string p = std::string("serve.handle.") + name;
      out.num(p + ".calls", double(us.size()));
      out.num(p + ".busy_ms", sum(us) / 1e3);
      out.num(p + ".p99_us", percentile(us, 0.99));
    }
    // Explicit snapshots of the final state.
    std::vector<double> snap_us;
    for (int i = 0; i < 10; ++i) {
      const std::int64_t a = now_ns();
      if (!response_ok(daemon->handle_line("{\"op\":\"snapshot\"}")))
        fail("snapshot op refused");
      snap_us.push_back(double(now_ns() - a) / 1e3);
    }
    out.num("serve.handle.snapshot.calls", double(snap_us.size()));
    out.num("serve.handle.snapshot.busy_ms", sum(snap_us) / 1e3);
    out.num("serve.handle.snapshot.p99_us", percentile(snap_us, 0.99));
    std::size_t journaled = 0;
    for (const Op& op : ops) journaled += op.kind != serve::OpKind::kStats;
    out.num("serve.snapshot.count", double(journaled / kSnapshotEvery));
    out.num("serve.snapshot.max_ms", max_of(snap_us) / 1e3);
    out.num("serve.snapshot.bytes",
            double(std::filesystem::file_size("replay-check.snap")));

    std::vector<double> decode_us;
    for (const Op& op : ops) {
      const std::int64_t a = now_ns();
      serve::decode_request(op.line);
      decode_us.push_back(double(now_ns() - a) / 1e3);
    }
    out.num("serve.wire.decode_p50_us", percentile(decode_us, 0.5));

    // The run's journal records through a fresh writer with the daemon's
    // sync policy (wal_sync_every 1: write + fsync per record).
    const serve::WalFile wal = serve::read_wal(kWal);
    std::filesystem::remove("probe.wal");
    std::vector<double> append_us;
    double bytes = 0.0, syncs = 0.0;
    {
      serve::WalWriter writer("probe.wal", wal.header, 1);
      for (const serve::WalRecord& rec : wal.records) {
        const std::int64_t a = now_ns();
        syncs += writer.append(rec.raw) ? 1.0 : 0.0;
        append_us.push_back(double(now_ns() - a) / 1e3);
        bytes += double(rec.raw.size() + 1);
      }
    }
    const double records = double(wal.records.size());
    out.num("serve.journal.appends", records);
    out.num("serve.journal.fsyncs", syncs);
    out.num("serve.journal.bytes_per_op", records > 0 ? bytes / records : 0.0);
    out.num("serve.journal.sync_p99_us", percentile(append_us, 0.99));

    out.num("serve.recover.records", replayed);
    out.num("serve.recover.ms", percentile(recover_ms, 0.5));
    out.num("serve.recover.us_per_record",
            replayed > 0 ? percentile(recover_ms, 0.5) * 1e3 / replayed : 0.0);
    std::vector<double> overhead;
    for (std::size_t k = 0; k < ref.latency_us.size(); ++k)
      overhead.push_back(ref.latency_us[k] - handle_us[bounds[kReference] + k]);
    out.num("serve.socket.overhead_p50_us", percentile(overhead, 0.5));
    out.num("loadgen.late_p99_us", percentile(ref.late_us, 0.99));
    out.num("loadgen.backlog_max", double(ref.backlog_max));
  }
  // Retry-drain work, from the live daemon's final stats.
  const double deferred = final_stats.find("deferred")->number;
  out.num("serve.engine.retries", final_stats.find("retries")->number);
  out.num("serve.engine.evacuated", final_stats.find("evacuated")->number);
  out.num("serve.engine.retried_placed_share",
          deferred > 0 ? final_stats.find("retried_placed")->number / deferred
                       : 0.0);

  out.num("attempted", double(ops.size()));
  out.num("failed", double(failed));
  out.str("digest", digest(live.assignment));
  out.str("energy_hex", live.energy_hex);
  out.str("error", error);
  std::cout << out.str() << std::endl;
  return 0;
}

}  // namespace esvabench
