//===- tools/cfv_serve.cpp - Long-lived NDJSON serving front-end ----------===//
//
// Part of the cfv project: reproduction of Jiang & Agrawal, CGO 2018.
//
//===----------------------------------------------------------------------===//
//
// A long-lived front-end over the serving layer (src/service/): reads one
// JSON request per line from stdin (or a TCP client with --port), answers
// one JSON response per line on stdout, in submission order.  Datasets
// and their inspector schedules are cached across requests, so repeated
// requests against one dataset skip both the load and the inspector --
// the cross-request amortization argument of the serving layer.
//
//   $ echo '{"app":"pagerank","dataset":"higgs-twitter-sim"}' | cfv_serve
//   {"ok":true,"app":"pagerank","version":"tiling_and_invec",...}
//
// Protocol:
//   {"app":"pagerank","dataset":"higgs-twitter-sim","version":"invec",
//    "iters":10,"threads":2,"source":0,"scale":1.0,"timeout_ms":500,
//    "id":"r1"}                   -> one response line, same "id"
//   {"cmd":"stats"}               -> cache + scheduler counters plus the
//                                    merged metrics registry (answered
//                                    immediately, even mid-load)
//   {"cmd":"metrics"}             -> Prometheus text exposition, JSON-
//                                    wrapped in {"prometheus":"..."}
//   {"cmd":"shutdown"}            -> drains and exits 0
//   GET /metrics, GET /healthz    -> HTTP/1.1 on the same port: the
//                                    Prometheus scrape or a JSON health
//                                    check; the connection stays open
//                                    (keep-alive) unless the client asks
//                                    to close or speaks HTTP/1.0
//   malformed line                -> structured parse_error response;
//                                    the server keeps serving
//
// Responses carry the result digest (checksum) plus latency telemetry:
// queue_seconds, load_seconds (0 exactly on a cache hit), prep_seconds,
// kernel_seconds, simd_util, mean_d1, cache_hit.
//
//===----------------------------------------------------------------------===//

#include "net/Server.h"
#include "obs/Metrics.h"
#include "resilience/Fault.h"
#include "service/NetIo.h"
#include "service/Protocol.h"
#include "service/Service.h"
#include "util/Env.h"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <future>
#include <string>

#if defined(__unix__) || defined(__APPLE__)
#define CFV_SERVE_HAVE_TCP 1
#include <csignal>
#include <poll.h>
#include <unistd.h>
#else
#define CFV_SERVE_HAVE_TCP 0
#endif

using namespace cfv;

namespace {

#if CFV_SERVE_HAVE_TCP
/// SIGTERM/SIGINT request a graceful drain: stop admitting, finish (or
/// structured-fail) everything in flight, flush metrics, exit 0.
std::atomic<bool> DrainRequested{false};

void onDrainSignal(int) { DrainRequested.store(true); }

void installSignalHandlers() {
  service::netio::ignoreSigpipe(); // client disconnects are EPIPE, not death
  struct sigaction SA;
  std::memset(&SA, 0, sizeof(SA));
  SA.sa_handler = onDrainSignal;
  sigemptyset(&SA.sa_mask);
  SA.sa_flags = 0; // deliberately no SA_RESTART: poll/accept must EINTR
  ::sigaction(SIGTERM, &SA, nullptr);
  ::sigaction(SIGINT, &SA, nullptr);
}

bool drainRequested() { return DrainRequested.load(); }
#else
void installSignalHandlers() {}
bool drainRequested() { return false; }
#endif

[[noreturn]] void usage(int Code) {
  std::fprintf(
      Code ? stderr : stdout,
      "usage: cfv_serve [options]\n"
      "\n"
      "Reads newline-delimited JSON requests from stdin and writes one\n"
      "JSON response per line to stdout, in submission order.\n"
      "\n"
      "options:\n"
      "  --queue-depth <n>    admission-control queue bound (default 64);\n"
      "                       a full queue answers {\"ok\":false,\n"
      "                       \"error\":\"unavailable\"} immediately\n"
      "  --workers <n>        scheduler worker threads (default 1; each\n"
      "                       request still parallelizes internally via\n"
      "                       --threads / CFV_THREADS)\n"
      "  --cache-bytes <n>    dataset cache budget in bytes\n"
      "                       (default $CFV_CACHE_BYTES, else 256 MiB;\n"
      "                       0 = unlimited)\n"
      "  --port <p>           serve many concurrent TCP clients on port p\n"
      "                       (epoll event loop; 0 = ephemeral port,\n"
      "                       printed to stderr; Linux only)\n"
      "  --shed-queue-pct <n> shed with {\"error\":\"overloaded\"} once the\n"
      "                       queue passes n%% of --queue-depth (default\n"
      "                       $CFV_SHED_QUEUE_PCT, else 100 = off)\n"
      "  --shed-latency-ms <n> shed when observed task latency (EWMA)\n"
      "                       exceeds n ms and a backlog exists (default\n"
      "                       $CFV_SHED_LATENCY_MS, else 0 = off)\n"
      "  --watchdog-ms <n>    fail requests whose worker stalls past n ms\n"
      "                       with a structured error (default\n"
      "                       $CFV_WATCHDOG_MS, else 0 = off)\n"
      "  --faults <spec>      arm the fault injector, e.g.\n"
      "                       io.read_error:p=0.05,cache.alloc_fail:nth=3\n"
      "                       (schedules: always, p=<prob>, nth=<k>,\n"
      "                       burst=<n>@<k>; seeded by CFV_SEED; default\n"
      "                       $CFV_FAULTS)\n"
      "\n"
      "SIGTERM/SIGINT drain gracefully: admission stops, in-flight\n"
      "requests finish (or fail structurally), metrics flush to stderr,\n"
      "exit 0.\n"
      "\n"
      "requests (one JSON object per line):\n"
      "  {\"app\":\"pagerank\",\"dataset\":\"higgs-twitter-sim\"}\n"
      "  {\"app\":\"sssp\",\"file\":\"graph.txt\",\"source\":3,\"id\":\"r7\"}\n"
      "  fields: app (required), version, dataset, file, scale, seed,\n"
      "          source, iters, threads, timeout_ms, id\n"
      "  {\"cmd\":\"stats\"}     cache/scheduler counters + metrics registry\n"
      "                       (answered immediately, even mid-load)\n"
      "  {\"cmd\":\"metrics\"}   Prometheus text, JSON-wrapped\n"
      "  {\"cmd\":\"backends\"}  compiled/available SIMD tiers + selection\n"
      "  {\"cmd\":\"shutdown\"}  drain and exit\n"
      "  GET /metrics ...     HTTP/1.1 Prometheus scrape (with --port;\n"
      "                       /healthz also answers)\n"
      "\n"
      "environment: CFV_BACKEND, CFV_THREADS, CFV_VALIDATE, CFV_SCALE,\n"
      "             CFV_CACHE_BYTES, CFV_MAX_CONNS, CFV_BATCH_WINDOW_US,\n"
      "             CFV_LISTEN_BACKLOG, CFV_IDLE_TIMEOUT_MS (see README)\n");
  std::exit(Code);
}

struct Options {
  int QueueDepth = 64;
  int Workers = 1;
  int64_t CacheBytes = -1; ///< defer to CFV_CACHE_BYTES
  int Port = -1;           ///< -1 = stdin/stdout; 0 = ephemeral TCP
  int ShedQueuePct = -1;   ///< defer to CFV_SHED_QUEUE_PCT
  double ShedLatencyMs = -1.0; ///< defer to CFV_SHED_LATENCY_MS
  double WatchdogMs = -1.0;    ///< defer to CFV_WATCHDOG_MS
  std::string Faults;      ///< fault-injector spec; "" = CFV_FAULTS
};

long long parseIntFlag(const std::string &Flag, const char *Text) {
  char *End = nullptr;
  errno = 0;
  const long long V = std::strtoll(Text, &End, 0);
  if (End == Text || *End != '\0' || errno == ERANGE) {
    std::fprintf(stderr, "error: %s needs an integer, got '%s'\n",
                 Flag.c_str(), Text);
    usage(2);
  }
  return V;
}

Options parseArgs(int Argc, char **Argv) {
  Options O;
  for (int I = 1; I < Argc; ++I) {
    const std::string Arg = Argv[I];
    auto Value = [&]() -> const char * {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "error: %s needs a value\n", Arg.c_str());
        usage(2);
      }
      return Argv[++I];
    };
    if (Arg == "--queue-depth") {
      const long long N = parseIntFlag(Arg, Value());
      if (N < 1 || N > 1 << 20) {
        std::fprintf(stderr, "error: --queue-depth needs [1, 2^20]\n");
        usage(2);
      }
      O.QueueDepth = static_cast<int>(N);
    } else if (Arg == "--workers") {
      const long long N = parseIntFlag(Arg, Value());
      if (N < 1 || N > 256) {
        std::fprintf(stderr, "error: --workers needs [1, 256]\n");
        usage(2);
      }
      O.Workers = static_cast<int>(N);
    } else if (Arg == "--cache-bytes") {
      const long long N = parseIntFlag(Arg, Value());
      if (N < 0) {
        std::fprintf(stderr, "error: --cache-bytes needs >= 0\n");
        usage(2);
      }
      O.CacheBytes = N;
    } else if (Arg == "--port") {
      const long long N = parseIntFlag(Arg, Value());
      if (N < 0 || N > 65535) {
        std::fprintf(stderr, "error: --port needs [0, 65535]\n");
        usage(2);
      }
      O.Port = static_cast<int>(N);
    } else if (Arg == "--shed-queue-pct") {
      const long long N = parseIntFlag(Arg, Value());
      if (N < 1 || N > 100) {
        std::fprintf(stderr, "error: --shed-queue-pct needs [1, 100]\n");
        usage(2);
      }
      O.ShedQueuePct = static_cast<int>(N);
    } else if (Arg == "--shed-latency-ms") {
      O.ShedLatencyMs = static_cast<double>(parseIntFlag(Arg, Value()));
    } else if (Arg == "--watchdog-ms") {
      O.WatchdogMs = static_cast<double>(parseIntFlag(Arg, Value()));
    } else if (Arg == "--faults") {
      O.Faults = Value();
    } else if (Arg == "--help" || Arg == "-h")
      usage(0);
    else {
      std::fprintf(stderr, "error: unknown option '%s'\n", Arg.c_str());
      usage(2);
    }
  }
  return O;
}

// The protocol renderers (statsJson, metricsJson, backendsJson,
// errorJson) live in service/Protocol.cpp, shared with net::Server so
// the stdin session and the event-loop front-end cannot drift.

/// Serves one line-oriented stream.  Returns true when a shutdown
/// command ended the session (as opposed to EOF).
///
/// Responses come back in submission order: each admitted request's
/// future is appended to a deque, and completed fronts are flushed as
/// they finish -- on POSIX the input wait is a poll() loop that ticks
/// flushReady(), so an interactive client gets each answer without
/// having to send another line first (and everything drains at
/// shutdown/EOF).  Parse errors and unknown commands answer inline,
/// after everything already pending, so request ordering stays exact.
/// The introspection verbs (stats, metrics) deliberately do NOT drain
/// the queue: they answer immediately so an operator can observe a
/// server mid-load, which is the whole point of scraping a live
/// system.  A raw HTTP GET line turns the stream into a one-shot
/// Prometheus scrape.
class Session {
public:
  Session(service::Service &S, std::FILE *In, std::FILE *Out)
      : Svc(S), In(In), Out(Out) {}

  bool run() {
    std::string Line;
    while (readLine(Line)) {
      // service::classifyLine is the shared protocol front-end; the
      // verify harness fuzzes the same function (verify/ServeFuzz).
      const service::ClassifiedLine C = service::classifyLine(Line);
      switch (C.Kind) {
      case service::LineKind::Empty:
        continue;
      case service::LineKind::HttpGet:
        serveHttpScrape();
        return false;
      case service::LineKind::Malformed:
      case service::LineKind::UnknownCmd:
      case service::LineKind::BadRequest:
        // A bad line is a request-level failure, not a server failure:
        // answer it (after everything already pending) and keep serving.
        flushAll();
        writeLine(service::errorJson(C.Id, C.Error));
        continue;
      case service::LineKind::Shutdown:
        flushAll();
        writeLine("{\"ok\":true,\"bye\":true}");
        return true;
      case service::LineKind::Stats:
        flushReady(); // no drain: stats must answer mid-load
        writeLine(service::statsJson(Svc));
        continue;
      case service::LineKind::Metrics:
        flushReady();
        writeLine(service::metricsJson());
        continue;
      case service::LineKind::Backends:
        flushReady(); // introspection: answer immediately, mid-load too
        writeLine(service::backendsJson());
        continue;
      case service::LineKind::Request:
        Pending.push_back(Svc.submit(C.Request));
        flushReady();
        continue;
      }
    }
    // EOF or drain signal: every admitted request still owes (and gets)
    // its completion -- flushAll consumes all pending futures.
    flushAll();
    return false;
  }

private:
#if CFV_SERVE_HAVE_TCP
  /// Unbuffered poll-driven line reader: while input is quiet, completed
  /// responses flush every tick instead of waiting for the next request
  /// line.  Bypasses the FILE buffer (own Buf) so poll() never sleeps on
  /// data that has already been read.
  bool readLine(std::string &L) {
    L.clear();
    while (true) {
      while (Pos < Buf.size()) {
        const char C = Buf[Pos++];
        if (C == '\n')
          return true;
        L.push_back(C);
      }
      if (drainRequested())
        return false; // graceful drain: stop admitting, run() flushes
      Buf.clear();
      Pos = 0;
      pollfd P;
      P.fd = ::fileno(In);
      P.events = POLLIN;
      P.revents = 0;
      const int R = ::poll(&P, 1, Pending.empty() ? 500 : 50);
      if (R == 0) {
        flushReady();
        continue;
      }
      if (R < 0) {
        if (errno == EINTR)
          continue; // the drain check above sees SIGTERM next pass
        return !L.empty();
      }
      char Tmp[4096];
      const ssize_t N = ::read(::fileno(In), Tmp, sizeof(Tmp));
      if (N <= 0)
        return !L.empty();
      Buf.assign(Tmp, static_cast<std::size_t>(N));
    }
  }
#else
  bool readLine(std::string &L) {
    L.clear();
    int C;
    while ((C = std::fgetc(In)) != EOF) {
      if (C == '\n')
        return true;
      L.push_back(static_cast<char>(C));
    }
    return !L.empty();
  }
#endif

  /// Delivers raw bytes to the client (stdout; the TCP path lives in
  /// net::Server now, with its own backpressure and fault injection).
  void emit(const std::string &Bytes) {
    std::fwrite(Bytes.data(), 1, Bytes.size(), Out);
    std::fflush(Out);
  }

  void writeLine(const std::string &S) { emit(S + "\n"); }

  void flushFront() {
    // get() before the gone-check: the future must be consumed either
    // way so every admitted request completes exactly once.
    writeLine(Pending.front().get().toJson());
    Pending.pop_front();
  }

  void flushReady() {
    while (!Pending.empty() &&
           Pending.front().wait_for(std::chrono::seconds(0)) ==
               std::future_status::ready)
      flushFront();
  }

  void flushAll() {
    while (!Pending.empty())
      flushFront();
  }

  /// Answers a raw HTTP request line with the Prometheus exposition and
  /// closes the stream -- `curl http://127.0.0.1:<port>/metrics` against
  /// a --port server.  Any path serves the same body; request headers
  /// are drained so the response isn't racing the client's send.
  void serveHttpScrape() {
    std::string Header;
    while (readLine(Header) && !Header.empty() && Header != "\r")
      ;
    const std::string Body =
        obs::MetricsRegistry::instance().renderPrometheus();
    char Header2[160];
    std::snprintf(Header2, sizeof(Header2),
                  "HTTP/1.0 200 OK\r\n"
                  "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
                  "Content-Length: %zu\r\n"
                  "Connection: close\r\n"
                  "\r\n",
                  Body.size());
    emit(std::string(Header2) + Body);
  }

  service::Service &Svc;
  std::FILE *In;
  std::FILE *Out;
  std::string Buf; ///< poll-reader input buffer
  std::size_t Pos = 0;
  std::deque<std::future<service::ServeResponse>> Pending;
};

#if defined(__linux__)
/// TCP mode: the epoll event-loop front-end (net::Server) -- many
/// concurrent clients, per-connection pipelining, same-dataset
/// micro-batching, pre-parse admission control, and an HTTP/1.1
/// /metrics + /healthz surface on the same port.
int serveTcp(service::Service &Svc, int Port) {
  net::Server::Config C;
  C.Port = Port;
  C.ShouldDrain = [] { return drainRequested(); };
  net::Server Server(Svc, C);
  const Status S = Server.listen();
  if (!S.ok()) {
    std::fprintf(stderr, "cfv_serve: %s\n", S.toString().c_str());
    return 1;
  }
  std::fprintf(stderr, "cfv_serve: listening on 127.0.0.1:%d\n",
               Server.boundPort());
  return Server.run();
}
#endif

} // namespace

int main(int Argc, char **Argv) {
  const Options O = parseArgs(Argc, Argv);
  installSignalHandlers();

  // --faults overrides the ambient CFV_FAULTS arming (which the
  // injector's first instance() performs on its own).
  if (!O.Faults.empty()) {
    const uint64_t Seed = static_cast<uint64_t>(
        env::intVar("CFV_SEED", 0xCAFEBABELL, INT64_MIN, INT64_MAX));
    const Expected<fault::Plan> P = fault::parsePlan(O.Faults, Seed);
    if (!P.ok()) {
      std::fprintf(stderr, "error: --faults: %s\n",
                   P.status().message().c_str());
      return 2;
    }
    fault::Injector::instance().configure(*P);
  }

  service::Service::Config C;
  C.CacheBytes = O.CacheBytes;
  C.QueueDepth = O.QueueDepth;
  C.Workers = O.Workers;
  C.ShedQueuePct = O.ShedQueuePct;
  C.ShedLatencyMs = O.ShedLatencyMs;
  C.WatchdogMs = O.WatchdogMs;
  service::Service Svc(C);

  int Rc = 0;
  if (O.Port >= 0) {
#if defined(__linux__)
    Rc = serveTcp(Svc, O.Port);
#else
    std::fprintf(stderr, "error: --port is not supported on this platform\n");
    return 2;
#endif
  } else {
    Session(Svc, stdin, stdout).run();
  }

  // Graceful drain epilogue: everything admitted has answered by now
  // (sessions flush their pending futures before returning); drain() is
  // the belt-and-braces barrier, then the final metrics state goes to
  // stderr so a supervisor's last scrape is never lost.
  Svc.drain();
  if (drainRequested())
    std::fprintf(stderr, "cfv_serve: drained on signal; final metrics:\n%s",
                 obs::MetricsRegistry::instance().renderPrometheus().c_str());
  return Rc;
}
