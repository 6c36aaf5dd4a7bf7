// Workload rpc-read: read-only TPC-C transactions (OrderStatus and
// StockLevel, 4 warehouses) sent by one generator thread over 4 connections
// to a front NetServer, whose handler forwards each one through
// dist::BackendPool to a backend NetServer over a memory-resident minidb.
// One vprofd, rooted at the front's net:request with net:queue_wait
// materialized, profiles the measured phases. The engine spends only a few
// microseconds per transaction, so the cost sits in net, dist and the
// profiler's probe path; disk and log stay idle.
//
// Two measured phases: a Poisson phase at a fixed rate well under capacity
// gives latency (timed from each request's scheduled send, so a stall also
// counts against the requests queued behind it), and a closed-loop phase
// with a fixed number of outstanding requests gives the peak rate. The two
// alternate in one-second blocks over the whole run, and each figure is the
// median over the blocks of that block's figure: a slow spell of the shared
// machine then moves a few blocks, not the result.
//
// vprofd's refinement controller stays off here and the probe set is fixed
// at the root and its direct callees (the controller's starting set). On
// these microsecond transactions the variance factors are noise, so a
// controller would instrument a different set in every run and the probe
// cost with it; the controller is measured on tpcc-online.
#include <sys/epoll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <arpa/inet.h>
#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cmath>
#include <ctime>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "perfbench/bench.h"
#include "perfbench/engine_counters.h"
#include "perfbench/profiling.h"
#include "src/dist/backend_pool.h"
#include "src/minidb/engine.h"
#include "src/net/frontend.h"
#include "src/net/protocol.h"
#include "src/net/server.h"
#include "src/statkit/rng.h"
#include "src/vprof/registry.h"
#include "src/vprof/service/vprofd.h"
#include "src/workload/tpcc.h"

namespace perfbench {

namespace {

constexpr int kConnections = 4;
constexpr int kWarehouses = 4;
constexpr int kFrontWorkers = 2;
constexpr int kBackendWorkers = 2;
constexpr size_t kPoolConnections = 2;
constexpr double kRatePerS = 4000.0;  // Poisson phase, well under capacity
constexpr int kOutstanding = 8;         // closed-loop phase
constexpr double kBlockSeconds = 1.0;   // one Poisson slice + one closed
constexpr double kPoissonShare = 0.6;   // of each block; the rest is closed
constexpr double kMaxClosedPerS = 40000.0;  // for reserving sample vectors
constexpr uint64_t kWarmupRequests = 4000;
// The generator sleeps in epoll until this close to a due send, then polls
// without blocking, so sends leave within microseconds of their schedule.
constexpr int64_t kSpinNs = 60'000;
constexpr int64_t kDrainNs = 5'000'000'000;

// The samples from index `from` on.
std::vector<double> Since(const std::vector<double>& values, size_t from) {
  return std::vector<double>(values.begin() + static_cast<ptrdiff_t>(from),
                             values.end());
}

void SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

struct PhaseStats {
  uint64_t sent = 0;
  uint64_t committed = 0;
  uint64_t failed = 0;
  uint64_t replies_in_window = 0;  // replies before the phase's end
  double seconds = 0.0;
  std::vector<double> latency_ns;   // scheduled send -> reply
  std::vector<double> lateness_ns;  // actual send - scheduled send (open loop)
};

// One thread, a few non-blocking connections, requests matched to replies
// by request id.
class Generator {
 public:
  Generator(uint16_t port, uint64_t seed)
      : rng_(seed),
        arrivals_(seed ^ 0xA11CE),
        generator_(ReadOnlyMix(), kWarehouses) {
    epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
    for (int i = 0; i < kConnections; ++i) {
      const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(port);
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      if (fd < 0 ||
          connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
        if (fd >= 0) close(fd);
        error_ = "connect to the front failed";
        return;
      }
      const int one = 1;
      setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      SetNonBlocking(fd);
      conns_.push_back(Conn{fd, {}, 0, {}, false});
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.u32 = static_cast<uint32_t>(i);
      epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
    }
  }

  ~Generator() {
    for (Conn& conn : conns_) close(conn.fd);
    if (epoll_fd_ >= 0) close(epoll_fd_);
  }

  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  const std::string& error() const { return error_; }
  uint64_t acked_total() const { return acked_total_; }

  // Open loop: Poisson arrivals at rate_per_s until `seconds` pass or *stop.
  // Adds to *stats.
  void Open(double rate_per_s, double seconds, const std::atomic<bool>* stop,
            PhaseStats* stats) {
    Run(rate_per_s, 0, seconds, UINT64_MAX, stop, stats);
  }
  // Closed loop: `outstanding` requests in flight until `seconds` pass or
  // `requests` were sent. Adds to *stats.
  void Closed(int outstanding, double seconds, uint64_t requests,
              PhaseStats* stats) {
    Run(0.0, outstanding, seconds, requests, nullptr, stats);
  }

 private:
  struct Conn {
    int fd = -1;
    std::string out;
    size_t out_off = 0;
    std::string in;
    bool want_write = false;
  };
  struct Pending {
    int64_t scheduled_ns = 0;
    int64_t sent_ns = 0;
  };

  static workload::TpccOptions ReadOnlyMix() {
    workload::TpccOptions options;
    options.pct_new_order = 0;
    options.pct_payment = 0;
    options.pct_order_status = 50;
    options.pct_delivery = 0;  // the remaining 50% are StockLevel
    return options;
  }

  double NextGapNs(double rate_per_s) {
    const double u = std::max(arrivals_.NextDouble(), 1e-12);
    return -std::log(u) / rate_per_s * 1e9;
  }

  void Run(double rate_per_s, int outstanding, double seconds,
           uint64_t max_requests, const std::atomic<bool>* stop,
           PhaseStats* stats_out) {
    PhaseStats& stats = *stats_out;
    phase_ = &stats;
    const bool open = outstanding == 0;
    max_requests = max_requests == UINT64_MAX ? UINT64_MAX
                                              : stats.sent + max_requests;
    const int64_t start = NowNs();
    const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
    double next_due =
        static_cast<double>(start) + (open ? NextGapNs(rate_per_s) : 0.0);
    sending_ = true;
    closed_phase_ = !open;
    phase_end_ns_ = end;
    max_requests_ = max_requests;
    if (!open) {
      for (int i = 0; i < outstanding; ++i) SendNext(NowNs());
    }
    while (true) {
      int64_t now = NowNs();
      if (sending_ &&
          (now >= end || stats.sent >= max_requests ||
           (stop != nullptr && stop->load(std::memory_order_relaxed)))) {
        sending_ = false;
      }
      if (open && sending_) {
        while (static_cast<double>(now) >= next_due &&
               next_due < static_cast<double>(end)) {
          const auto due = static_cast<int64_t>(next_due);
          SendNext(due);
          stats.lateness_ns.push_back(static_cast<double>(NowNs() - due));
          next_due += NextGapNs(rate_per_s);
          now = NowNs();
        }
      }
      if (!sending_ && pending_.empty()) break;
      if (now > end + kDrainNs) {
        stats.failed += pending_.size();
        error_ = std::to_string(pending_.size()) + " requests never answered";
        pending_.clear();
        break;
      }
      int64_t wait_ns = 1'000'000;
      if (open && sending_) {
        wait_ns = static_cast<int64_t>(next_due) - now - kSpinNs;
      }
      if (!Poll(std::max<int64_t>(wait_ns, 0))) break;
    }
    stats.seconds += static_cast<double>(end - start) / 1e9;
    phase_ = nullptr;
  }

  void SendNext(int64_t scheduled_ns) {
    net::Frame frame;
    frame.type = net::MsgType::kTxn;
    frame.request_id = next_id_++;
    frame.txn = generator_.Next(rng_);
    Conn& conn = conns_[frame.request_id % conns_.size()];
    net::EncodeFrame(frame, &conn.out);
    pending_[frame.request_id] = Pending{scheduled_ns, NowNs()};
    ++phase_->sent;
    Flush(&conn, static_cast<uint32_t>(frame.request_id % conns_.size()));
  }

  void Flush(Conn* conn, uint32_t index) {
    while (conn->out_off < conn->out.size()) {
      const ssize_t n = send(conn->fd, conn->out.data() + conn->out_off,
                             conn->out.size() - conn->out_off, MSG_NOSIGNAL);
      if (n > 0) {
        conn->out_off += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      error_ = "send to the front failed";
      return;
    }
    if (conn->out_off == conn->out.size()) {
      conn->out.clear();
      conn->out_off = 0;
    }
    const bool want = !conn->out.empty();
    if (want != conn->want_write) {
      epoll_event ev{};
      ev.events = EPOLLIN | (want ? EPOLLOUT : 0u);
      ev.data.u32 = index;
      epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
      conn->want_write = want;
    }
  }

  // Waits up to timeout_ns for socket events and handles them. False on a
  // fatal connection error.
  bool Poll(int64_t timeout_ns) {
    epoll_event events[kConnections];
    timespec timeout{};
    timeout.tv_sec = timeout_ns / 1'000'000'000;
    timeout.tv_nsec = timeout_ns % 1'000'000'000;
    const int n = epoll_pwait2(epoll_fd_, events, kConnections, &timeout,
                               nullptr);
    if (n < 0) return errno == EINTR;
    for (int i = 0; i < n; ++i) {
      const uint32_t index = events[i].data.u32;
      Conn& conn = conns_[index];
      if (events[i].events & EPOLLOUT) Flush(&conn, index);
      if (events[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) {
        if (!Drain(&conn)) return false;
      }
    }
    return error_.empty();
  }

  bool Drain(Conn* conn) {
    char buf[16 * 1024];
    while (true) {
      const ssize_t n = recv(conn->fd, buf, sizeof(buf), 0);
      if (n > 0) {
        conn->in.append(buf, static_cast<size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      error_ = "the front closed a connection";
      return false;
    }
    size_t offset = 0;
    const int64_t now = NowNs();
    while (offset < conn->in.size()) {
      net::Frame reply;
      size_t consumed = 0;
      const net::WireError status = net::DecodeFrame(
          reinterpret_cast<const uint8_t*>(conn->in.data()) + offset,
          conn->in.size() - offset, &reply, &consumed);
      if (status == net::WireError::kNeedMore) break;
      if (status != net::WireError::kOk) {
        error_ = std::string("undecodable reply: ") + net::WireErrorName(status);
        return false;
      }
      offset += consumed;
      OnReply(reply, now);
    }
    conn->in.erase(0, offset);
    return true;
  }

  void OnReply(const net::Frame& reply, int64_t now) {
    auto it = pending_.find(reply.request_id);
    if (it == pending_.end()) {
      error_ = "reply for unknown or already answered request " +
               std::to_string(reply.request_id);
      return;
    }
    const Pending pending = it->second;
    pending_.erase(it);
    RecordSpan("net.request", reply.request_id, pending.sent_ns, now,
               reply.request_id);
    if (reply.type == net::MsgType::kTxnReply && reply.status == 0) {
      ++phase_->committed;
      ++acked_total_;
      phase_->latency_ns.push_back(
          static_cast<double>(now - pending.scheduled_ns));
      if (now <= phase_end_ns_) ++phase_->replies_in_window;
    } else {
      ++phase_->failed;
    }
    if (closed_phase_ && sending_ && now < phase_end_ns_ &&
        phase_->sent < max_requests_) {
      SendNext(NowNs());
    }
  }

  statkit::Rng rng_;
  statkit::Rng arrivals_;
  workload::TpccGenerator generator_;
  int epoll_fd_ = -1;
  std::vector<Conn> conns_;
  std::unordered_map<uint64_t, Pending> pending_;
  uint64_t next_id_ = 1;
  uint64_t acked_total_ = 0;
  std::string error_;
  PhaseStats* phase_ = nullptr;
  bool sending_ = false;
  bool closed_phase_ = false;
  int64_t phase_end_ns_ = 0;
  uint64_t max_requests_ = 0;
};

}  // namespace

RunResult RunRpcRead(const RunOptions& options) {
  RunResult result;
  // Pace the generator thread at microsecond granularity.
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);

  minidb::EngineConfig config = minidb::EngineConfig::MemoryResident();
  config.warehouses = kWarehouses;
  minidb::Engine engine(config);
  auto graph = std::make_shared<vprof::CallGraph>();
  minidb::Engine::RegisterCallGraph(graph.get());
  net::NetServer::RegisterNetCallGraph(graph.get(), "run_transaction");
  dist::RegisterDistCallGraph(graph.get(), "run_transaction");

  const net::NetServer::Handler execute = net::MakeMinidbHandler(&engine);
  net::NetServerOptions backend_options;
  backend_options.workers = kBackendWorkers;
  net::NetServer backend(backend_options, [&execute](const net::Frame& request) {
    Span span(request.type == net::MsgType::kTxn
                  ? ExecuteSpanName(request.txn.type)
                  : "minidb.execute.other",
              0, 0, "dist.call");
    return execute(request);
  });
  if (!backend.Start()) {
    result.Fail("backend NetServer failed to start");
    return result;
  }
  dist::BackendPoolOptions pool_options;
  pool_options.service = net::ServiceId::kMinidb;
  pool_options.connections = kPoolConnections;
  pool_options.port = backend.port();
  dist::BackendPool pool(pool_options);
  if (!pool.Warm()) {
    result.Fail("BackendPool warm-up failed");
    return result;
  }
  net::NetServerOptions front_options;
  front_options.workers = kFrontWorkers;
  net::NetServer front(front_options, [&pool](const net::Frame& request) {
    Span handler("net.handler", request.request_id, request.request_id);
    net::Frame forward;
    forward.type = net::MsgType::kTxn;
    forward.txn = request.txn;
    net::Frame reply;
    bool ok = false;
    {
      Span call("dist.call", request.request_id);
      ok = pool.Call(std::move(forward), &reply);
    }
    if (!ok) {
      reply = net::Frame{};
      reply.type = net::MsgType::kTxnReply;
      reply.status = 1;
    }
    reply.has_server_timing = false;
    reply.has_trace_context = false;
    return reply;
  });
  if (!front.Start()) {
    result.Fail("front NetServer failed to start");
    return result;
  }

  const uint64_t committed_base = engine.committed_count();
  const uint64_t calls_base = pool.client_stats().calls;
  Generator generator(front.port(), options.seed);
  if (!generator.error().empty()) {
    result.Fail(generator.error());
    return result;
  }
  PhaseStats warmup;
  generator.Closed(kOutstanding, 60.0, kWarmupRequests, &warmup);
  result.end_to_end["setup_s"] = SinceStartS();
  if (warmup.failed > 0 || warmup.committed != kWarmupRequests) {
    result.Fail("warm-up: " + std::to_string(warmup.committed) + " of " +
                std::to_string(kWarmupRequests) + " committed");
  }
  EnableSpans(options.trace);

  vprof::VprofdOptions daemon_options;
  daemon_options.root_function = net::kNetRootFunc;
  daemon_options.graph = graph;
  daemon_options.tree.path_options.queue_wait_factor = net::kQueueWaitFactor;
  daemon_options.history.dir = options.scratch_dir + "/history";
  daemon_options.enable_controller = false;
  const vprof::FuncId root = vprof::RegisterFunction(net::kNetRootFunc);
  vprof::SetFunctionEnabled(root, true);
  for (const vprof::FuncId callee : graph->Children(root)) {
    vprof::SetFunctionEnabled(callee, true);
  }
  vprof::Vprofd daemon(daemon_options);
  daemon.Start();

  const EngineCounters before = EngineCounters::Read(engine);
  const net::NetServerStats front_before = front.stats();
  PhaseStats poisson;
  PhaseStats closed;
  // Reserved up front (untouched pages cost no memory) so vector growth
  // does not put copy peaks into the process's resident set.
  const double poisson_s = options.seconds * kPoissonShare;
  const double closed_s = options.seconds - poisson_s;
  poisson.latency_ns.reserve(static_cast<size_t>(1.2 * kRatePerS * poisson_s));
  poisson.lateness_ns.reserve(poisson.latency_ns.capacity());
  closed.latency_ns.reserve(static_cast<size_t>(kMaxClosedPerS * closed_s));
  std::vector<double> block_p50_ns;
  std::vector<double> block_tail_ns;
  std::vector<double> block_rate;
  {
    Scraper scraper(&daemon);
    const int blocks =
        std::max(1, static_cast<int>(std::lround(options.seconds /
                                                 kBlockSeconds)));
    for (int block = 0; block < blocks; ++block) {
      const size_t poisson_from = poisson.latency_ns.size();
      const size_t closed_from = closed.latency_ns.size();
      const uint64_t replies_from = closed.replies_in_window;
      generator.Open(kRatePerS, poisson_s / blocks, nullptr, &poisson);
      generator.Closed(kOutstanding, closed_s / blocks, UINT64_MAX, &closed);
      block_p50_ns.push_back(
          Quantile(Since(poisson.latency_ns, poisson_from), 0.50));
      block_tail_ns.push_back(
          TailQuantile(Since(closed.latency_ns, closed_from)));
      block_rate.push_back(
          static_cast<double>(closed.replies_in_window - replies_from) /
          (closed_s / blocks));
    }
    scraper.Stop();
  }
  const EngineCounters after = EngineCounters::Read(engine);
  const net::NetServerStats front_after = front.stats();
  daemon.Stop();
  const vprof::OnlineTreeSnapshot snapshot = daemon.Snapshot();
  const double measured_s = poisson.seconds + closed.seconds;

  result.attempted = poisson.sent + closed.sent;
  result.failed = poisson.failed + closed.failed;
  // p50 is the fixed-rate phase's median. Its p99 is set by whole-process
  // stalls of 10-25 ms on a shared 4-vCPU machine and moves by several times
  // between runs, so the tail reported is the closed-loop phase's (each
  // stall there delays only the requests in flight); the fixed-rate tail and
  // the whole-run figures are printed on note lines.
  result.end_to_end["p50_ms"] = Quantile(block_p50_ns, 0.5) / 1e6;
  result.end_to_end["tail_ms"] = Quantile(block_tail_ns, 0.5) / 1e6;
  char tail[160];
  std::snprintf(tail, sizeof(tail),
                "fixed-rate phase: p50 %.3f ms, p99 %.3f ms, max %.3f ms",
                Quantile(poisson.latency_ns, 0.50) / 1e6,
                Quantile(poisson.latency_ns, 0.99) / 1e6,
                Quantile(poisson.latency_ns, 1.0) / 1e6);
  result.Note(tail);
  std::snprintf(tail, sizeof(tail),
                "closed-loop phase: p50 %.3f ms, p99 %.3f ms, max %.3f ms",
                Quantile(closed.latency_ns, 0.50) / 1e6,
                Quantile(closed.latency_ns, 0.99) / 1e6,
                Quantile(closed.latency_ns, 1.0) / 1e6);
  result.Note(tail);
  result.end_to_end["throughput_per_s"] = Quantile(block_rate, 0.5);
  result.end_to_end["profiled_per_s"] =
      static_cast<double>(snapshot.intervals) / measured_s;
  const uint64_t history_bytes = daemon.history() == nullptr
                                     ? 0
                                     : daemon.history()->disk_bytes();
  const double lateness_p50_us = Quantile(poisson.lateness_ns, 0.5) / 1e3;
  const double lateness_max_us = Quantile(poisson.lateness_ns, 1.0) / 1e3;
  char line[256];
  std::snprintf(line, sizeof(line),
                "poisson: %llu sent at %.0f/s, %zu latency samples; "
                "loadgen lateness p50 %.1f us, max %.1f us",
                static_cast<unsigned long long>(poisson.sent), kRatePerS,
                poisson.latency_ns.size(), lateness_p50_us, lateness_max_us);
  result.Note(line);
  std::snprintf(line, sizeof(line),
                "closed: %d outstanding, %llu replies in %.2f s; "
                "%.0f s blocks alternate the phases; whole-run rate %.1f/s",
                kOutstanding,
                static_cast<unsigned long long>(closed.replies_in_window),
                closed.seconds, kBlockSeconds,
                static_cast<double>(closed.replies_in_window) /
                    closed.seconds);
  result.Note(line);
  result.Note("vprofd: " + std::to_string(daemon.epochs()) + " epochs, " +
              std::to_string(snapshot.intervals) + " intervals folded; " +
              "history " + std::to_string(history_bytes) + " B");

  if (options.trace) {
    result.Layer("loadgen.lateness_us.p50", lateness_p50_us);
    result.Layer("loadgen.lateness_us.max", lateness_max_us);
    if (snapshot.intervals > 0) {
      result.Layer("net.queue_wait_us",
                   snapshot.total_queue_wait_ns /
                       static_cast<double>(snapshot.intervals) / 1e3);
    }
    result.Layer("net.peak_dispatch_depth",
                 static_cast<double>(front_after.peak_dispatch_depth));
    const uint64_t requests = front_after.requests - front_before.requests;
    if (requests > 0) {
      result.Layer(
          "net.bytes_per_request",
          static_cast<double>((front_after.bytes_in - front_before.bytes_in) +
                              (front_after.bytes_out - front_before.bytes_out)) /
              static_cast<double>(requests));
    }
    result.Layer("service.gap_ms",
                 daemon.epochs() == 0
                     ? 0.0
                     : static_cast<double>(daemon.total_gap_ns()) /
                           static_cast<double>(daemon.epochs()) / 1e6);
    if (daemon.history() != nullptr && daemon.history()->record_count() > 0) {
      result.Layer("statstore.bytes_per_epoch",
                   static_cast<double>(history_bytes) /
                       static_cast<double>(daemon.history()->record_count()));
      (void)QueryAllSeries(*daemon.history());
    }
    SetEngineLayerMetrics(before, after, &result);

    // Capture epochs while the Poisson load keeps running.
    AnalysisSetup setup;
    setup.graph = graph.get();
    setup.root = vprof::LookupFunction(net::kNetRootFunc);
    setup.path_options.queue_wait_factor = net::kQueueWaitFactor;
    std::atomic<bool> captured{false};
    std::thread capture([&] {
      CaptureEpochs(setup, options.scratch_dir, &result);
      captured.store(true);
    });
    PhaseStats during;
    generator.Open(kRatePerS, 60.0, &captured, &during);
    capture.join();
    if (during.failed > 0) {
      result.Fail(std::to_string(during.failed) +
                  " requests failed during the capture");
    }
  }

  // --- checks --------------------------------------------------------------
  if (!generator.error().empty()) result.Fail(generator.error());
  front.Shutdown();
  const uint64_t replies_sent = front.stats().replies_sent;
  const uint64_t backend_committed = engine.committed_count() - committed_base;
  const uint64_t pool_calls = pool.client_stats().calls - calls_base;
  const uint64_t acked = generator.acked_total();
  if (!(acked == replies_sent && acked == backend_committed &&
        acked == pool_calls)) {
    result.Fail("client acks " + std::to_string(acked) +
                ", front replies_sent " + std::to_string(replies_sent) +
                ", backend committed " + std::to_string(backend_committed) +
                ", BackendPool calls " + std::to_string(pool_calls) +
                " differ");
  }
  if (result.failed > 0) {
    result.Fail(std::to_string(result.failed) +
                " requests got no committed reply");
  }
  pool.Shutdown();
  backend.Shutdown();
  return result;
}

}  // namespace perfbench
