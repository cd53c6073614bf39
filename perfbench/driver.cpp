// perfbench driver — runs one workload of the sereep end-to-end benchmark and
// writes its raw samples as JSON; run.py turns them into named metrics.
//
//   perfbench_driver --workload=NAME --seed=N --seconds=S --trace=0|1
//                    --work=DIR --sereep=PATH --out=FILE
//
// Every workload runs on the s38417 generator profile under --seed:
//   cold_bench_sweep  per op, a fresh Session from the generated .bench:
//                     parse, compile, SP, plan, propagate, sweep_csv()
//   serve_hot_reads   a `sereep serve` child holding the generated .sca;
//                     four closed-loop callers send a seeded psens/sweep/ser
//                     mix, one connection per request
//   edit_requery      one Session on the .sca; per op, one seeded edit
//                     (apply_edit) followed by ser_csv()
//
// The timed window is --seconds long. With --trace=1 the window is split in
// two halves, untraced then traced, so the tracing overhead is measured on
// the same set-up; a span is recorded around every public call the driver
// makes, per-layer probes run after the window, and the spans are written as
// Chrome trace-event JSON to DIR/trace.json.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sereep/session.hpp"
#include "src/artifact/compiled_artifact.hpp"
#include "src/epp/incremental.hpp"
#include "src/epp/shard_protocol.hpp"
#include "src/netlist/bench_io.hpp"
#include "src/netlist/circuit_edit.hpp"
#include "src/netlist/cone_cluster.hpp"
#include "src/netlist/generator.hpp"
#include "src/serve/serve_protocol.hpp"
#include "src/sim/fault_injection.hpp"
#include "src/util/net.hpp"
#include "src/util/rng.hpp"
#include "src/util/subprocess.hpp"

namespace {

using sereep::Circuit;
using sereep::GateType;
using sereep::NodeId;
using sereep::Options;
using sereep::Session;
using Clock = std::chrono::steady_clock;

constexpr unsigned kThreads = 4;       // engine threads and serve connections
constexpr std::size_t kErrSites = 64;  // psens_abs_err site sample
constexpr std::size_t kErrVectors = 4096;
constexpr std::uint64_t kNetlistSeed = 0x15ca589;  // `sereep gen` default
// setup_s is the median of this many set-ups; an edit_requery set-up runs a
// full ser(), about 1 s, so that workload takes fewer.
constexpr int kSetupReps = 15;
constexpr int kEditSetupReps = 7;
constexpr std::size_t kEditChecks = 4;  // edit_requery ops the oracle replays
// Requests per serve block: one sweep, one ser, the rest psens. The sweeps
// still take most of the daemon's time; the psens reads give the latency
// percentiles their samples.
constexpr std::size_t kServeBlock = 200;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---- spans -----------------------------------------------------------------

/// In-memory span recorder. A span is one public call: name, start, end,
/// the enclosing span and the operation id. `metric` names the per-layer
/// metric the span's self time feeds (empty for structural spans).
class Tracer {
 public:
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, long op, const char* metric)
        : tracer_(tracer != nullptr && tracer->enabled_ ? tracer : nullptr) {
      if (tracer_ == nullptr) return;
      id_ = tracer_->next_id_.fetch_add(1);
      parent_ = current_;
      current_ = id_;
      name_ = name;
      metric_ = metric;
      op_ = op;
      start_ = Clock::now();
    }
    ~Scope() {
      if (tracer_ == nullptr) return;
      current_ = parent_;
      tracer_->record(*this, Clock::now());
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    friend class Tracer;
    Tracer* tracer_;
    int id_ = 0;
    int parent_ = 0;
    const char* name_ = "";
    const char* metric_ = "";
    long op_ = -1;
    Clock::time_point start_;
  };

  void set_enabled(bool on) { enabled_ = on; }
  static void set_thread(int tid) { tid_ = tid; }

  /// Chrome trace-event JSON ("X" complete events, microseconds).
  void write_chrome(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::ofstream out(path);
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[512];
      std::snprintf(buf, sizeof buf,
                    "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,"
                    "\"parent\":%d,\"op\":%ld,\"metric\":\"%s\"}}",
                    i == 0 ? "" : ",", s.name, s.tid, s.ts_us, s.dur_us, s.id,
                    s.parent, s.op, s.metric);
      out << buf;
    }
    out << "\n]}\n";
    if (!out) throw std::runtime_error("cannot write trace " + path);
  }

  [[nodiscard]] std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }

 private:
  struct Span {
    const char* name;
    const char* metric;
    double ts_us;
    double dur_us;
    int id;
    int parent;
    int tid;
    long op;
  };

  void record(const Scope& s, Clock::time_point end) {
    const auto us = [&](Clock::time_point t) {
      return std::chrono::duration<double, std::micro>(t - epoch_).count();
    };
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({s.name_, s.metric_, us(s.start_), us(end) - us(s.start_),
                      s.id_, s.parent_, tid_, s.op_});
  }

  static thread_local int current_;
  static thread_local int tid_;
  bool enabled_ = false;
  std::atomic<int> next_id_{1};
  const Clock::time_point epoch_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};
thread_local int Tracer::current_ = 0;
thread_local int Tracer::tid_ = 0;

Tracer g_tracer;

Tracer::Scope span(const char* name, long op = -1, const char* metric = "") {
  return Tracer::Scope(&g_tracer, name, op, metric);
}

// ---- results ---------------------------------------------------------------

struct Op {
  std::string kind;
  double ms = 0.0;
  bool ok = true;
  int window = 0;
};

struct Result {
  std::size_t sites = 0;
  std::size_t gates = 0;
  std::vector<double> setup_s;
  std::vector<Op> ops;
  double window_s[2] = {0.0, 0.0};
  double peak_rss_mb = 0.0;  ///< VmHWM of the system under test at the end
  double psens_abs_err = -1.0;  ///< cold_bench_sweep only
  std::vector<std::string> failures;  ///< one line per failed op or check
  std::size_t failed_checks = 0;      ///< failures not tied to a timed op
  std::map<std::string, double> counters;

  void fail_check(const std::string& why) {
    failures.push_back(why);
    ++failed_checks;
  }
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

void write_result(const std::string& path, const std::string& workload,
                  long seed, const Result& r) {
  std::ostringstream o;
  o.precision(17);
  o << "{\"workload\":\"" << workload << "\",\"seed\":" << seed
    << ",\"threads\":" << kThreads << ",\"sites\":" << r.sites
    << ",\"gates\":" << r.gates << ",\"setup_s\":[";
  for (std::size_t i = 0; i < r.setup_s.size(); ++i) {
    o << (i ? "," : "") << r.setup_s[i];
  }
  o << "],\"window_s\":[" << r.window_s[0] << "," << r.window_s[1]
    << "],\"ops\":[";
  for (std::size_t i = 0; i < r.ops.size(); ++i) {
    const Op& op = r.ops[i];
    o << (i ? ",\n" : "\n") << "[\"" << op.kind << "\"," << op.ms << ","
      << (op.ok ? "true" : "false") << "," << op.window << "]";
  }
  o << "],\"peak_rss_mb\":" << r.peak_rss_mb
    << ",\"psens_abs_err\":" << r.psens_abs_err
    << ",\"psens_abs_err_sites\":" << kErrSites
    << ",\"failed_checks\":" << r.failed_checks << ",\"failures\":[";
  for (std::size_t i = 0; i < r.failures.size(); ++i) {
    o << (i ? "," : "") << "\"" << json_escape(r.failures[i]) << "\"";
  }
  o << "],\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : r.counters) {
    o << (first ? "" : ",") << "\"" << name << "\":" << value;
    first = false;
  }
  o << "}}\n";
  std::ofstream out(path);
  out << o.str();
  if (!out) throw std::runtime_error("cannot write " + path);
}

// ---- measurement helpers ---------------------------------------------------

/// VmHWM (peak resident set) of `pid` ("self" for this process), in MB.
double peak_rss_mb(const std::string& pid) {
  std::ifstream status("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  throw std::runtime_error("no VmHWM in /proc/" + pid + "/status");
}

double cpu_seconds() {
  rusage ru = {};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           1e-6 * static_cast<double>(tv.tv_usec);
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string round_trip(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g\n", v);
  return buf;
}

Options engine_options(unsigned threads = kThreads) {
  Options o;
  o.threads = threads;
  return o;
}

/// Mean |EPP - fault injection| P_sensitized over an evenly spaced sample of
/// error sites (the paper's accuracy axis). `epp` answers one site.
double psens_abs_err(const Circuit& circuit, std::uint64_t seed,
                     const std::function<double(NodeId)>& epp) {
  sereep::FaultInjector injector(circuit);
  sereep::McOptions mc;
  mc.num_vectors = kErrVectors;
  mc.seed = seed;
  double sum = 0.0;
  const std::vector<sereep::McSiteResult> sample =
      injector.run_all(mc, kErrSites);
  for (const sereep::McSiteResult& r : sample) {
    sum += std::fabs(epp(r.site) - r.probability());
  }
  return sample.empty() ? 0.0 : sum / static_cast<double>(sample.size());
}

/// A timed window: runs load for `seconds` as window number `window` and
/// returns its wall time.
using Window = std::function<double(double seconds, int window)>;

/// The timed phase: one untraced window of `seconds`, or (trace) two half
/// windows, the second traced.
void run_windows(double seconds, bool trace, Result& r, const Window& window) {
  if (!trace) {
    r.window_s[0] = window(seconds, 0);
    return;
  }
  r.window_s[0] = window(seconds / 2, 0);
  g_tracer.set_enabled(true);
  r.window_s[1] = window(seconds / 2, 1);
}

/// A closed loop of one caller: runs `op(index)` back to back until the
/// window has elapsed (at least one op), timing each from outside.
Window closed_loop(Result& r, const std::function<Op(long)>& op) {
  return [&r, op](double seconds, int window) {
    const Clock::time_point t0 = Clock::now();
    do {
      const Clock::time_point start = Clock::now();
      Op done = op(static_cast<long>(r.ops.size()));
      done.ms = 1e3 * seconds_since(start);
      done.window = window;
      r.ops.push_back(std::move(done));
    } while (seconds_since(t0) < seconds);
    return seconds_since(t0);
  };
}

// ---- inputs ----------------------------------------------------------------

struct Inputs {
  std::string bench;  ///< generated .bench
  std::string sca;    ///< compiled artifact of the same circuit
  std::size_t gates = 0;
};

/// Writes the netlist `sereep gen --profile=s38417` writes (the generator's
/// default seed) and, when `sca`, its compiled artifact. The netlist is the
/// same for every --seed: --seed drives the request mix, the edit script and
/// the fault-injection vectors, so run-to-run spread measures the code, not
/// the circuit.
Inputs make_inputs(const std::string& work, bool sca) {
  Inputs in;
  in.bench = work + "/s38417.bench";
  {
    const Circuit generated = sereep::generate_circuit(
        sereep::iscas89_profile("s38417"), kNetlistSeed);
    in.gates = generated.gate_count();
    if (!sereep::save_bench_file(generated, in.bench)) {
      throw std::runtime_error("cannot write " + in.bench);
    }
  }
  if (sca) {
    // Compiled from the parsed .bench, as `sereep compile` does, so node ids
    // match the .bench across workloads.
    in.sca = work + "/s38417.sca";
    (void)sereep::write_artifact(in.sca, sereep::load_netlist(in.bench), {});
  }
  return in;
}

// ---- per-layer probes (traced runs) ----------------------------------------

/// Calls each layer's public function once more on a fresh session opened the
/// way the workload opens it (.bench: load_netlist + Session; .sca:
/// Session::open), in layer order, each inside its own span.
/// `plan_session`, when set, is the session the plan probe uses instead
/// (edit_requery: the edited one).
void probe_layers(const std::string& spec, Result& r,
                  Session* plan_session = nullptr) {
  constexpr long kProbe = -2;
  std::optional<Session> s;
  if (sereep::is_artifact_path(spec)) {
    auto sc = span("Session::open", kProbe, "artifact.load_ms");
    s.emplace(Session::open(spec, engine_options()));
  } else {
    Circuit c = [&] {
      auto sc = span("load_netlist", kProbe, "netlist.parse_ms");
      return sereep::load_netlist(spec);
    }();
    s.emplace(std::move(c), engine_options());
  }
  {
    auto sc = span("Session::compiled", kProbe, "netlist.compile_ms");
    (void)s->compiled();
  }
  {
    auto sc = span("Session::sp", kProbe, "sigprob.sp_ms");
    (void)s->sp();
  }
  {
    // The session's own planner: a .bench session's plans from scratch, a
    // .sca session's answers from the artifact's stored plan, and one whose
    // circuit took a structural edit plans the edited circuit from scratch.
    Session& target = plan_session != nullptr ? *plan_session : *s;
    const sereep::ConeClusterPlanner& planner = target.planner();
    const std::span<const NodeId> sites = target.sites();
    auto sc = span("ConeClusterPlanner::plan", kProbe, "netlist.plan_ms");
    r.counters["netlist.plan_clusters"] =
        static_cast<double>(planner.plan(sites).size());
  }
  {
    auto sc = span("Session::sweep_p_sensitized", kProbe, "epp.psens_first_ms");
    (void)s->sweep_p_sensitized();
  }
  {
    auto sc = span("Session::sweep_p_sensitized", kProbe, "epp.psens_warm_ms");
    (void)s->sweep_p_sensitized();
  }
  {
    const double cpu0 = cpu_seconds();
    const Clock::time_point t0 = Clock::now();
    {
      auto sc = span("Session::sweep_p_sensitized", kProbe);
      (void)s->sweep_p_sensitized();
    }
    r.counters["epp.cpu_util"] =
        (cpu_seconds() - cpu0) / (seconds_since(t0) * kThreads);
  }
  {
    auto sc = span("Session::sweep_csv", kProbe, "epp.sweep_csv_warm_ms");
    (void)s->sweep_csv();
  }
  {
    auto sc = span("Session::sweep", kProbe, "epp.records_ms");
    (void)s->sweep();
  }
  {
    auto sc = span("Session::ser", kProbe, "ser.fold_ms");
    (void)s->ser();
  }
  {
    auto sc = span("Session::ser_csv", kProbe, "render.ser_csv_ms");
    r.counters["render.bytes"] = static_cast<double>(s->ser_csv().size());
  }
  // Thread scaling: warm p_sensitized sweep at 1 thread (the first call at
  // the new setting rebuilds the engine and is not timed).
  s->set_options(engine_options(1));
  (void)s->sweep_p_sensitized();
  {
    auto sc = span("Session::sweep_p_sensitized", kProbe, "epp.psens_1t_ms");
    (void)s->sweep_p_sensitized();
  }
}

// ---- cold_bench_sweep ------------------------------------------------------

Result run_cold(const Inputs& in, std::uint64_t seed, double seconds,
               bool trace) {
  Result r;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const Clock::time_point t0 = Clock::now();
    Session s(sereep::load_netlist(in.bench), engine_options());
    (void)s.compiled();
    r.setup_s.push_back(seconds_since(t0));
  }
  std::vector<std::uint64_t> digests;
  const auto op = [&](long index) {
    auto root = span("op", index);
    Circuit c = [&] {
      auto sc = span("load_netlist", index, "netlist.parse_ms");
      return sereep::load_netlist(in.bench);
    }();
    Session s(std::move(c), engine_options());
    {
      auto sc = span("Session::compiled", index, "netlist.compile_ms");
      (void)s.compiled();
    }
    {
      auto sc = span("Session::sp", index, "sigprob.sp_ms");
      (void)s.sp();
    }
    auto sc = span("Session::sweep_csv", index, "epp.cold_sweep_csv_ms");
    digests.push_back(fnv1a(s.sweep_csv()));
    return Op{"sweep"};
  };
  (void)op(-1);  // warm-up (untimed, unchecked): first-touch of the heap
  digests.clear();
  run_windows(seconds, trace, r, closed_loop(r, op));
  r.peak_rss_mb = peak_rss_mb("self");

  // Oracle: the same rendering from the single-threaded compiled engine.
  Options oracle = engine_options(1);
  oracle.engine = "compiled";
  Session ref(sereep::load_netlist(in.bench), oracle);
  const std::uint64_t want = fnv1a(ref.sweep_csv());
  for (std::size_t i = 0; i < r.ops.size(); ++i) {
    if (digests[i] != want) {
      r.ops[i].ok = false;
      r.failures.push_back("op " + std::to_string(i) +
                           ": sweep_csv differs from the compiled engine");
    }
  }
  r.sites = ref.sites().size();
  r.psens_abs_err = psens_abs_err(
      ref.circuit(), seed, [&](NodeId n) { return ref.p_sensitized(n); });
  if (trace) probe_layers(in.bench, r);
  return r;
}

// ---- serve_hot_reads -------------------------------------------------------

/// One client connection to the daemon. Every request opens its own and
/// closes it after the reply, as `sereep client` does.
class Connection {
 public:
  explicit Connection(std::uint16_t port)
      : fd_(sereep::tcp_connect("127.0.0.1", port, 30'000)) {}
  ~Connection() { ::close(fd_); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// One request/response round trip; returns the kResponse body, throws on
  /// kBusy, kError, a closed connection or any other frame.
  std::string call(const std::vector<std::uint8_t>& payload) {
    sereep::write_shard_frame(fd_, sereep::ShardFrameType::kRequest, payload);
    const std::optional<sereep::ShardFrame> frame =
        sereep::read_shard_frame(fd_, 120'000);
    if (!frame) throw std::runtime_error("server closed the connection");
    std::string body(reinterpret_cast<const char*>(frame->payload.data()),
                     frame->payload.size());
    if (frame->type == sereep::ShardFrameType::kResponse) return body;
    if (frame->type == sereep::ShardFrameType::kBusy) {
      throw std::runtime_error("kBusy: " + body);
    }
    if (frame->type == sereep::ShardFrameType::kError) {
      throw std::runtime_error("kError: " + body);
    }
    throw std::runtime_error("unexpected frame type");
  }

 private:
  int fd_;
};

struct Request {
  const char* kind;  ///< "sweep" | "ser" | "psens"
  std::vector<std::uint8_t> payload;
  std::string expected;  ///< the in-process rendering
};

struct Daemon {
  sereep::ChildProcess child;
  std::uint16_t port;
};

/// Spawns `sereep serve` on an ephemeral loopback port, logging its stderr
/// to WORK/serve.log and its pid to WORK/daemon.pids (so run.py can reap it
/// if this driver is killed).
Daemon spawn_daemon(const std::string& sereep_bin, const std::string& work) {
  sereep::ChildProcess child = sereep::ChildProcess::spawn(
      {sereep_bin, "serve", "--port=0", "--threads=" + std::to_string(kThreads),
       "--serve-threads=" + std::to_string(kThreads)},
      work + "/serve.log");
  std::ofstream(work + "/daemon.pids", std::ios::app) << child.pid() << "\n";
  const std::uint16_t port =
      sereep::parse_listening_port(child.read_stdout_line(60'000));
  return Daemon{std::move(child), port};
}

/// SIGTERM drain; records a failed check unless the daemon exits 0.
void drain(Daemon& d, Result& r) {
  d.child.send_signal(SIGTERM);
  const std::optional<int> status = d.child.wait_exit(60'000);
  if (!status || *status != 0) {
    r.fail_check("serve daemon did not drain to exit status 0");
    d.child.kill_tree();
  }
}

std::map<std::string, double> parse_stats(const std::string& text) {
  std::map<std::string, double> out;
  std::istringstream in(text);
  std::string name;
  double value = 0.0;
  while (in >> name >> value) out[name] = value;
  return out;
}

Result run_serve(const Inputs& in, const std::string& sereep_bin,
                 const std::string& work, std::uint64_t seed, double seconds,
                 bool trace) {
  Result r;
  std::signal(SIGPIPE, SIG_IGN);
  const auto encode = [&](sereep::ServeRequestKind kind, std::string node) {
    sereep::ServeRequest req;
    req.kind = kind;
    req.netlist = in.sca;
    req.node = std::move(node);
    return sereep::encode_request(req);
  };

  // Requests with their expected bytes: the in-process Session renderings of
  // the same artifact. psens reads draw from a seeded pool of 256 sites, one
  // from each of 256 strata of the sites ordered by cone size (a psens read
  // propagates the one site, so its cost follows the cone), so every seed's
  // pool costs the same.
  Request sweep{"sweep", encode(sereep::ServeRequestKind::kSweepCsv, ""), {}};
  Request ser{"ser", encode(sereep::ServeRequestKind::kSerCsv, ""), {}};
  std::vector<Request> psens_pool;
  {
    Session s = Session::open(in.sca, engine_options());
    sweep.expected = s.sweep_csv();
    ser.expected = s.ser_csv();
    std::vector<std::pair<std::size_t, NodeId>> by_cone;
    for (const sereep::SiteEpp& rec : s.sweep()) {
      by_cone.emplace_back(rec.cone_size, rec.site);
    }
    std::sort(by_cone.begin(), by_cone.end());
    sereep::Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
    constexpr std::size_t kPool = 256;
    for (std::size_t i = 0; i < kPool; ++i) {
      const std::size_t lo = i * by_cone.size() / kPool;
      const std::size_t hi = (i + 1) * by_cone.size() / kPool;
      const NodeId site = by_cone[lo + rng.below(hi - lo)].second;
      psens_pool.push_back({"psens",
                            encode(sereep::ServeRequestKind::kPSensitized,
                                   s.circuit().node(site).name),
                            round_trip(s.p_sensitized(site))});
    }
    r.sites = s.sites().size();
  }
  const auto check = [](const Request& req, const std::string& body) {
    if (body != req.expected) {
      throw std::runtime_error(std::string(req.kind) +
                               " response differs from the in-process "
                               "rendering");
    }
  };

  // Set-up: daemon spawn to its first (cold) response, kSetupReps times;
  // the last daemon stays up for the timed load.
  std::optional<Daemon> daemon;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (daemon) drain(*daemon, r);
    const Clock::time_point t0 = Clock::now();
    daemon.emplace(spawn_daemon(sereep_bin, work));
    Connection conn(daemon->port);
    const std::string body = conn.call(psens_pool[0].payload);
    r.setup_s.push_back(seconds_since(t0));
    check(psens_pool[0], body);
  }
  {
    // Warm the hot session (engine, stored plan, SER memo) before timing.
    Connection conn(daemon->port);
    check(sweep, conn.call(sweep.payload));
    check(ser, conn.call(ser.payload));
  }

  // Timed load: kThreads closed-loop callers, each request on a new
  // connection. Each caller sends seeded blocks of kServeBlock requests
  // (1 sweep, 1 ser, the rest psens) in shuffled order.
  const Window loaded = [&](double window_seconds, int window) {
    std::vector<std::vector<Op>> per_conn(kThreads);
    std::vector<std::vector<std::string>> errors(kThreads);
    std::vector<std::thread> threads;
    const Clock::time_point t0 = Clock::now();
    for (unsigned c = 0; c < kThreads; ++c) {
      threads.emplace_back([&, c] {
        Tracer::set_thread(static_cast<int>(c) + 1);
        sereep::Rng rng(seed * 131 + c * 7919 + static_cast<unsigned>(window));
        std::vector<const Request*> block;
        std::size_t n = 0;
        while (seconds_since(t0) < window_seconds) {
          if (block.empty()) {
            block = {&sweep, &ser};
            while (block.size() < kServeBlock) {
              block.push_back(&psens_pool[rng.below(psens_pool.size())]);
            }
            for (std::size_t i = block.size() - 1; i > 0; --i) {
              std::swap(block[i], block[rng.below(i + 1)]);
            }
          }
          const Request& req = *block.back();
          block.pop_back();
          const long op_id = static_cast<long>(c * 1'000'000 + n++);
          Op op{req.kind};
          op.window = window;
          const Clock::time_point start = Clock::now();
          try {
            auto sc = span("op", op_id);
            Connection conn(daemon->port);
            auto rq = span("serve.request", op_id);
            check(req, conn.call(req.payload));
          } catch (const std::exception& e) {
            op.ok = false;
            errors[c].push_back(e.what());
          }
          op.ms = 1e3 * seconds_since(start);
          per_conn[c].push_back(std::move(op));
        }
      });
    }
    for (std::thread& t : threads) t.join();
    const double wall = seconds_since(t0);
    for (unsigned c = 0; c < kThreads; ++c) {
      r.ops.insert(r.ops.end(), per_conn[c].begin(), per_conn[c].end());
      for (const std::string& e : errors[c]) r.failures.push_back(e);
    }
    return wall;
  };
  run_windows(seconds, trace, r, loaded);

  if (trace) {
    // Unloaded round trips, one caller, one span per request.
    constexpr long kProbe = -3;
    const auto unloaded = [&](const Request& req, const char* metric) {
      auto sc = span("serve.request", kProbe, metric);
      check(req, Connection(daemon->port).call(req.payload));
    };
    for (int i = 0; i < 3; ++i) unloaded(sweep, "serve.rtt_ms.sweep");
    for (int i = 0; i < 3; ++i) unloaded(ser, "serve.rtt_ms.ser");
    for (int i = 0; i < 30; ++i) unloaded(psens_pool[i], "serve.rtt_ms.psens");
  }
  {
    Connection conn(daemon->port);
    sereep::ServeRequest req;
    req.kind = sereep::ServeRequestKind::kStats;
    const std::map<std::string, double> stats =
        parse_stats(conn.call(sereep::encode_request(req)));
    const auto get = [&](const char* key) {
      const auto it = stats.find(key);
      return it == stats.end() ? 0.0 : it->second;
    };
    r.counters["serve.cache_hits"] = get("serve_session_cache_hits");
    r.counters["serve.cache_misses"] = get("serve_session_cache_misses");
    r.counters["serve.busy_rejects"] = get("serve_connections_rejected_busy");
    r.counters["serve.errors"] = get("serve_errors_sent");
  }
  r.peak_rss_mb = peak_rss_mb(std::to_string(daemon->child.pid()));
  drain(*daemon, r);
  if (trace) probe_layers(in.sca, r);
  return r;
}

// ---- edit_requery ----------------------------------------------------------

/// The same-arity partner a retype swaps a gate to (and back).
std::optional<GateType> partner(GateType t) {
  switch (t) {
    case GateType::kAnd: return GateType::kNand;
    case GateType::kNand: return GateType::kAnd;
    case GateType::kOr: return GateType::kNor;
    case GateType::kNor: return GateType::kOr;
    case GateType::kXor: return GateType::kXnor;
    case GateType::kXnor: return GateType::kXor;
    case GateType::kNot: return GateType::kBuf;
    case GateType::kBuf: return GateType::kNot;
    default: return std::nullopt;
  }
}

/// How many sites an edit of `gate` can dirty: the sites whose cone reaches
/// the gate's downstream closure, as Session::apply_edit computes them.
std::size_t reach_sites(Session& s, NodeId gate) {
  const sereep::CompiledCircuit& compiled = s.compiled();
  const NodeId seed[] = {gate};
  const std::vector<std::uint8_t> mask = sereep::affected_site_mask(
      compiled, sereep::downstream_closure(compiled, seed), s.sites());
  return static_cast<std::size_t>(std::count(mask.begin(), mask.end(), 1));
}

/// Seeded edit script. Ops cycle through four retype/revert pairs and one
/// `tmr` (a structural edit that re-flattens): a retype swaps a gate to its
/// same-arity partner and the next op swaps it back, so the circuit does not
/// drift; tmr targets are never reused. Targets come from a seeded sample of
/// retypeable gates split into eight strata by reach_sites(), and successive
/// edits cycle through the strata, so every run mixes small and large dirty
/// cones in the same proportions.
class EditScript {
 public:
  EditScript(Session& s, std::uint64_t seed) : rng_(seed) {
    const Circuit& c = s.circuit();
    std::vector<NodeId> gates;
    for (NodeId id = 0; id < c.node_count(); ++id) {
      if (partner(c.type(id))) gates.push_back(id);
    }
    if (gates.empty()) throw std::runtime_error("no retypeable gate");
    std::vector<std::pair<std::size_t, NodeId>> sample;
    for (std::size_t i = 0; i < kStrata * kPerStratum; ++i) {
      const NodeId g = gates[rng_.below(gates.size())];
      sample.emplace_back(reach_sites(s, g), g);
    }
    std::sort(sample.begin(), sample.end());
    for (std::size_t i = 0; i < sample.size(); ++i) {
      strata_[i / kPerStratum].push_back(sample[i].second);
    }
  }

  /// The next op as a plan; `kind` receives "retype" | "revert" | "tmr".
  sereep::EditPlan next(const Circuit& c, std::string& kind) {
    sereep::EditOp op;
    if (pending_) {
      op.node = c.node(pending_->first).name;
      op.type = pending_->second;
      pending_.reset();
      kind = "revert";
    } else if (++slot_ % 5 == 0) {
      NodeId g = pick();
      while (std::find(tmr_.begin(), tmr_.end(), g) != tmr_.end()) g = pick();
      tmr_.push_back(g);
      op.kind = sereep::EditOp::Kind::kTmr;
      op.node = c.node(g).name;
      kind = "tmr";
    } else {
      const NodeId g = pick();
      pending_ = {g, c.type(g)};
      op.node = c.node(g).name;
      op.type = *partner(c.type(g));
      kind = "retype";
    }
    return sereep::EditPlan{{op}};
  }

 private:
  static constexpr std::size_t kStrata = 8;
  static constexpr std::size_t kPerStratum = 16;

  NodeId pick() {
    const std::vector<NodeId>& stratum = strata_[picks_++ % kStrata];
    return stratum[rng_.below(stratum.size())];
  }

  sereep::Rng rng_;
  std::vector<NodeId> strata_[kStrata];
  std::vector<NodeId> tmr_;
  std::optional<std::pair<NodeId, GateType>> pending_;
  unsigned slot_ = 0;
  std::size_t picks_ = 0;
};

std::size_t total_builds(const Session::BuildCounts& b) {
  return b.compiled + b.sp + b.planner + b.engine + b.multicycle + b.ser;
}

Result run_edit(const Inputs& in, std::uint64_t seed, double seconds,
                bool trace) {
  Result r;
  std::optional<Session> s;
  for (int rep = 0; rep < kEditSetupReps; ++rep) {
    s.reset();
    const Clock::time_point t0 = Clock::now();
    s.emplace(Session::open(in.sca, engine_options()));
    (void)s->ser();
    r.setup_s.push_back(seconds_since(t0));
  }
  r.sites = s->sites().size();

  const Circuit base(s->circuit());
  EditScript script(*s, seed);
  std::vector<sereep::EditPlan> plans;  // every applied edit, in order
  std::vector<std::uint64_t> digests;   // ser_csv digest per timed op
  const auto edit_op = [&](long index) {
    std::string kind;
    plans.push_back(script.next(s->circuit(), kind));
    auto root = span("op", index);
    {
      auto sc = span("Session::apply_edit", index, "session.apply_edit_ms");
      (void)s->apply_edit(plans.back());
    }
    auto sc = span("Session::ser_csv", index, "session.requery_ms");
    digests.push_back(fnv1a(s->ser_csv()));
    return Op{kind};
  };
  // Warm-up pair (untimed): the first re-query after the seeding ser()
  // builds the record cache every later splice reuses.
  (void)edit_op(-1);
  (void)edit_op(-1);
  const std::size_t warm_ops = plans.size();
  digests.clear();
  const Session::IncrementalStats inc0 = s->incremental_stats();
  const std::size_t builds0 = total_builds(s->build_counts());
  run_windows(seconds, trace, r, closed_loop(r, edit_op));
  r.peak_rss_mb = peak_rss_mb("self");
  const Session::IncrementalStats& inc = s->incremental_stats();
  const double resweeped =
      static_cast<double>(inc.resweeped_sites - inc0.resweeped_sites);
  r.counters["session.resweep_sites"] =
      resweeped / static_cast<double>(r.ops.size());
  r.counters["session.resweep_frac"] =
      resweeped / (static_cast<double>(r.ops.size()) *
                   static_cast<double>(s->sites().size()));
  r.counters["session.builds"] =
      static_cast<double>(total_builds(s->build_counts()) - builds0);

  // Oracle: replay the edits on a copy of the unedited circuit and compare
  // a fresh Session's ser_csv with the op's own re-query, for the last op
  // and a seeded sample of ops that left an edit in place (retype, tmr).
  std::vector<std::size_t> checked;
  for (std::size_t i = 0; i + 1 < r.ops.size(); ++i) {
    if (r.ops[i].kind != "revert") checked.push_back(i);
  }
  sereep::Rng rng(seed ^ 0x5bd1e995ULL);
  for (std::size_t i = checked.size(); i > 1; --i) {
    std::swap(checked[i - 1], checked[rng.below(i)]);
  }
  checked.resize(std::min(checked.size(), kEditChecks - 1));
  checked.push_back(r.ops.size() - 1);
  std::sort(checked.begin(), checked.end());
  Circuit replay(base);
  std::size_t applied = 0;
  for (const std::size_t i : checked) {
    for (; applied <= warm_ops + i; ++applied) {
      (void)sereep::apply_edit_plan(replay, plans[applied]);
    }
    Session fresh(Circuit(replay), engine_options());
    if (fnv1a(fresh.ser_csv()) != digests[i]) {
      r.ops[i].ok = false;
      r.failures.push_back("op " + std::to_string(i) + " (" +
                           r.ops[i].kind +
                           "): ser_csv differs from a fresh Session on the "
                           "edited circuit");
    }
  }
  if (trace) probe_layers(in.sca, r, &*s);
  return r;
}

// ---- main ------------------------------------------------------------------

std::string flag(int argc, char** argv, const std::string& name,
                 const std::string& fallback = "") {
  const std::string prefix = "--" + name + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
  }
  return fallback;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string workload = flag(argc, argv, "workload");
  const std::string work = flag(argc, argv, "work");
  const std::string out = flag(argc, argv, "out");
  const std::string sereep_bin = flag(argc, argv, "sereep");
  const long seed = std::strtol(flag(argc, argv, "seed", "0").c_str(),
                                nullptr, 10);
  const double seconds =
      std::strtod(flag(argc, argv, "seconds", "10").c_str(), nullptr);
  const bool trace = flag(argc, argv, "trace", "0") == "1";
  if (work.empty() || out.empty() || seconds <= 0) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload=NAME --seed=N "
                 "--seconds=S --trace=0|1 --work=DIR --sereep=PATH "
                 "--out=FILE\n");
    return 2;
  }
  try {
    const auto useed = static_cast<std::uint64_t>(seed);
    const bool cold = workload == "cold_bench_sweep";
    if (!cold && workload != "serve_hot_reads" && workload != "edit_requery") {
      std::fprintf(stderr, "error: unknown workload '%s'\n", workload.c_str());
      return 2;
    }
    const Inputs in = make_inputs(work, !cold);
    Result r = cold ? run_cold(in, useed, seconds, trace)
               : workload == "serve_hot_reads"
                   ? run_serve(in, sereep_bin, work, useed, seconds, trace)
                   : run_edit(in, useed, seconds, trace);
    r.gates = in.gates;
    if (trace) {
      r.counters["trace.spans"] = static_cast<double>(g_tracer.size());
      g_tracer.write_chrome(work + "/trace.json");
    }
    write_result(out, workload, seed, r);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
