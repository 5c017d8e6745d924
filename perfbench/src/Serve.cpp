//===- perfbench/src/Serve.cpp - serve-4c: closed-loop TCP serving --------===//
//
// Starts the shipped cfv_serve (--port 0 --workers 2) and drives it from
// one generator thread over four loopback connections, each holding
// exactly one request in flight: generator, event loop and two workers
// make four busy threads on four vCPUs.  Requests cycle a seeded mix of
// pagerank, sssp, wcc, bfs and spmv over three small SNAP files written
// in setup, so kernels take milliseconds and serving overhead shows.
// Serving phases alternate with rounds of cold-1t's calls, run in this
// process as controls while the connections are idle.
//
//===----------------------------------------------------------------------===//

#include "Serve.h"

#include "Batch.h"
#include "Reference.h"
#include "graph/Generators.h"
#include "graph/Io.h"
#include "graph/Prepared.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <fstream>
#include <memory>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <spawn.h>
#include <sstream>
#include <sys/socket.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

extern char **environ;

using namespace cfv;

namespace perfbench {

namespace {

constexpr int kConns = 4;

//===----------------------------------------------------------------------===//
// The server process and its connections
//===----------------------------------------------------------------------===//

/// A running cfv_serve; the destructor drains it (SIGTERM) and waits,
/// killing it if the drain does not finish.
class Server {
public:
  Server() = default;
  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;
  ~Server() { stop(); }

  /// Spawns \p Bin with stderr to \p Log and waits for its port banner.
  bool start(const std::string &Bin, const std::string &Log) {
    posix_spawn_file_actions_t Fa;
    posix_spawn_file_actions_init(&Fa);
    posix_spawn_file_actions_addopen(&Fa, 2, Log.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_addopen(&Fa, 0, "/dev/null", O_RDONLY, 0);
    const char *Argv[] = {Bin.c_str(), "--port", "0", "--workers", "2",
                          nullptr};
    const int Rc = posix_spawn(&Pid, Bin.c_str(), &Fa, nullptr,
                               const_cast<char **>(Argv), environ);
    posix_spawn_file_actions_destroy(&Fa);
    if (Rc != 0) {
      Pid = -1;
      return false;
    }
    const double Deadline = now() + 20.0;
    while (now() < Deadline) {
      std::ifstream F(Log);
      std::string Line;
      while (std::getline(F, Line)) {
        const std::size_t At = Line.find("listening on 127.0.0.1:");
        if (At != std::string::npos) {
          Port = std::atoi(Line.c_str() + At + 23);
          return Port > 0;
        }
      }
      int Status = 0;
      if (::waitpid(Pid, &Status, WNOHANG) == Pid) {
        Pid = -1;
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return false;
  }

  void stop() {
    if (Pid <= 0)
      return;
    ::kill(Pid, SIGTERM);
    int Status = 0;
    const double Deadline = now() + 10.0;
    while (::waitpid(Pid, &Status, WNOHANG) == 0) {
      if (now() > Deadline) {
        ::kill(Pid, SIGKILL);
        ::waitpid(Pid, &Status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    Pid = -1;
  }

  /// Peak resident set of the server process in MiB.
  double peakRssMb() const { return perfbench::peakRssMb(std::to_string(Pid)); }

  int port() const { return Port; }

private:
  pid_t Pid = -1;
  int Port = 0;
};

/// One loopback connection carrying NDJSON lines.
class Conn {
public:
  Conn() = default;
  Conn(const Conn &) = delete;
  Conn &operator=(const Conn &) = delete;
  ~Conn() {
    if (Fd >= 0)
      ::close(Fd);
  }

  bool open(int Port) {
    Fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (Fd < 0)
      return false;
    sockaddr_in Addr{};
    Addr.sin_family = AF_INET;
    Addr.sin_port = htons(static_cast<uint16_t>(Port));
    Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0)
      return false;
    int One = 1;
    ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
    return true;
  }

  bool send(const std::string &Bytes) {
    std::size_t Off = 0;
    while (Off < Bytes.size()) {
      const ssize_t N = ::send(Fd, Bytes.data() + Off, Bytes.size() - Off,
                               MSG_NOSIGNAL);
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0)
        return false;
      Off += static_cast<std::size_t>(N);
    }
    return true;
  }

  /// Reads what is available; false on EOF or error.
  bool readSome() {
    char Buf[65536];
    const ssize_t N = ::recv(Fd, Buf, sizeof(Buf), 0);
    if (N < 0 && errno == EINTR)
      return true;
    if (N <= 0)
      return false;
    In.append(Buf, static_cast<std::size_t>(N));
    return true;
  }

  /// Pops one complete line, if buffered.
  bool popLine(std::string &Line) {
    const std::size_t Nl = In.find('\n');
    if (Nl == std::string::npos)
      return false;
    Line = In.substr(0, Nl);
    In.erase(0, Nl + 1);
    return true;
  }

  /// Blocks for one line (setup only); false on EOF or after 60 s.
  bool readLine(std::string &Line) {
    const double Deadline = now() + 60.0;
    while (!popLine(Line)) {
      pollfd P{Fd, POLLIN, 0};
      if (now() > Deadline || ::poll(&P, 1, 1000) < 0 ||
          ((P.revents & POLLIN) && !readSome()))
        return false;
    }
    return true;
  }

  int fd() const { return Fd; }
  std::string In; ///< bytes received, not yet split into lines

private:
  int Fd = -1;
};

/// Number field \p Key of a flat JSON object line (NaN when absent).
double jsonNumber(const std::string &Line, const std::string &Key) {
  const std::size_t At = Line.find("\"" + Key + "\":");
  if (At == std::string::npos)
    return std::nan("");
  const char *P = Line.c_str() + At + Key.size() + 3;
  if (std::strncmp(P, "true", 4) == 0)
    return 1.0;
  if (std::strncmp(P, "false", 5) == 0)
    return 0.0;
  if (*P == '"')
    ++P; // quoted id
  return std::strtod(P, nullptr);
}

/// GET /metrics on a fresh connection; returns name -> value for the
/// unlabeled samples.
std::map<std::string, double> scrapeMetrics(int Port) {
  std::map<std::string, double> M;
  Conn C;
  if (!C.open(Port) ||
      !C.send("GET /metrics HTTP/1.1\r\nHost: localhost\r\n"
              "Connection: close\r\n\r\n"))
    return M;
  // Read the header, then exactly Content-Length body bytes.
  const double Deadline = now() + 10.0;
  std::size_t Want = std::string::npos;
  while (now() < Deadline && C.In.size() < Want) {
    pollfd P{C.fd(), POLLIN, 0};
    if (::poll(&P, 1, 1000) < 0 || ((P.revents & POLLIN) && !C.readSome()))
      break;
    const std::size_t End = C.In.find("\r\n\r\n");
    const std::size_t Len = C.In.find("Content-Length: ");
    if (End != std::string::npos && Len != std::string::npos && Len < End)
      Want = End + 4 + std::strtoull(C.In.c_str() + Len + 16, nullptr, 10);
  }
  std::istringstream S(C.In);
  std::string Line;
  while (std::getline(S, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    const std::size_t Sp = Line.rfind(' ');
    if (Sp == std::string::npos || Line.find('{') != std::string::npos)
      continue;
    M[Line.substr(0, Sp)] = std::atof(Line.c_str() + Sp + 1);
  }
  return M;
}

//===----------------------------------------------------------------------===//
// Inputs, request mix and expected answers
//===----------------------------------------------------------------------===//

struct File {
  std::string Path;
};

/// One request shape of the mix and its expected checksum.
struct Variant {
  std::string Json; ///< the request line without its id
  double Expected = 0.0;
};

struct SetupOut {
  double Total = 0, Gen = 0;
  std::vector<double> PerGraphGen, ColdLoadMs;
};

/// Generates the three graphs, writes them as weighted SNAP files, starts
/// the server and pays each file's cold loads (weighted and unweighted
/// apps key separate cache entries).
bool setupServe(const Args &A, int Rep, std::vector<File> &Files,
                std::unique_ptr<Server> &Srv,
                std::vector<std::unique_ptr<Conn>> &Conns, SetupOut &T,
                Recorder &Rec, int64_t Op) {
  const double T0 = now();
  const int Root = Rec.add("bench.setup", T0, T0, -1, Op);
  Files.assign(3, File());
  for (int F = 0; F < 3; ++F) {
    const uint64_t Seed = subSeed(A.Seed, 10 + F);
    const double G0 = now();
    graph::EdgeList G =
        F == 0   ? graph::genRmat(14, 600000, Seed, 64.0f, 0.62, 0.17, 0.17)
        : F == 1 ? graph::genRmat(13, 900000, Seed, 64.0f, 0.68, 0.14, 0.14)
                 : graph::genClustered(15, 480000, Seed, 8, 0.05, 64.0f);
    const double G1 = now();
    Rec.add("graph.gen", G0, G1, Root, Op);
    T.Gen += G1 - G0;
    T.PerGraphGen.push_back(G1 - G0);
    Files[F].Path = A.WorkDir + "/serve" + std::to_string(F) + ".snap";
    if (!graph::writeSnapEdgeList(Files[F].Path, G).ok())
      return false;
  }
  Srv = std::make_unique<Server>();
  const double S0 = now();
  if (!Srv->start(A.ServeBin,
                  A.WorkDir + "/serve" + std::to_string(Rep) + ".log"))
    return false;
  Rec.add("net.server_start", S0, now(), Root, Op);
  Conns.clear();
  for (int C = 0; C < kConns; ++C) {
    Conns.push_back(std::make_unique<Conn>());
    if (!Conns.back()->open(Srv->port()))
      return false;
  }
  for (int F = 0; F < 3; ++F)
    for (const char *App : {"wcc", "sssp"}) {
      const double L0 = now();
      std::string Reply;
      if (!Conns[0]->send(std::string("{\"id\":\"cold\",\"app\":\"") + App +
                          "\",\"file\":\"" + Files[F].Path +
                          "\",\"iters\":1}\n") ||
          !Conns[0]->readLine(Reply) || jsonNumber(Reply, "ok") != 1.0) {
        std::fprintf(stderr, "cfvbench: cold load failed: %s\n",
                     Reply.c_str());
        return false;
      }
      const double Load = jsonNumber(Reply, "load_seconds");
      Rec.add("graph.cold_load", L0, L0 + Load, Root, Op);
      T.ColdLoadMs.push_back(1e3 * Load);
    }
  T.Total = now() - T0;
  Rec.setEnd(Root, T0 + T.Total);
  return true;
}

/// Builds the request mix and, for each shape, the expected checksum: an
/// in-process cfv::run of the same request on the same file, itself
/// checked against the benchmark's independent reference.
bool makeVariants(const std::vector<File> &Files, uint64_t Seed,
                  std::vector<Variant> &Vs) {
  for (int F = 0; F < 3; ++F) {
    Expected<graph::EdgeList> G = graph::readSnapEdgeList(Files[F].Path);
    if (!G.ok()) {
      std::fprintf(stderr, "cfvbench: %s\n", G.status().toString().c_str());
      return false;
    }
    const graph::PreparedGraph P(std::move(*G));
    const graph::EdgeList &E = P.edges();
    const Coo C = cooOf(E);
    // Sources, in the reader's vertex numbering: vertex 0 and a seeded
    // vertex with out-edges.
    const int32_t Sources[2] = {
        0, E.Src[static_cast<std::size_t>(subSeed(Seed, 20 + F) %
                                          E.Src.size())]};
    struct Shape {
      const char *App;
      AppId Id;
      int Src;
      int Iters;
    };
    const Shape Shapes[] = {{"pagerank", AppId::PageRank, 0, 5},
                            {"sssp", AppId::Sssp, 0, 0},
                            {"sssp", AppId::Sssp, 1, 0},
                            {"wcc", AppId::Wcc, 0, 0},
                            {"bfs", AppId::Bfs, 0, 0},
                            {"bfs", AppId::Bfs, 1, 0},
                            {"spmv", AppId::Spmv, 0, 8}};
    for (const Shape &S : Shapes) {
      const int32_t Source = Sources[S.Src];
      Variant V;
      V.Json = std::string("\"app\":\"") + S.App + "\",\"file\":\"" +
               Files[F].Path + "\",\"source\":" + std::to_string(Source) +
               (S.Iters ? ",\"iters\":" + std::to_string(S.Iters) : "") + "}";
      AppRequest R;
      R.App = S.Id;
      R.Prepared = &P;
      R.Source = Source;
      R.Options.MaxIterations = S.Iters;
      Expected<AppResult> Res = cfv::run(R);
      if (!Res.ok()) {
        std::fprintf(stderr, "cfvbench: in-process %s: %s\n", S.App,
                     Res.status().toString().c_str());
        return false;
      }
      std::vector<double> Abs;
      const std::string Why =
          S.Id == AppId::PageRank
              ? checkPageRank(*Res, refPageRank(C, Res->Iterations))
          : S.Id == AppId::Sssp ? checkSssp(*Res, refDijkstra(C, Source))
          : S.Id == AppId::Wcc  ? checkLabels(*Res, refMinReachingLabel(C))
          : S.Id == AppId::Bfs  ? checkLevels(*Res, refBfs(C, Source))
                                : checkSpmv(*Res, refSpmv(C, S.Iters, Abs), Abs);
      if (!Why.empty()) {
        std::fprintf(stderr, "cfvbench: in-process %s: %s\n", S.App,
                     Why.c_str());
        return false;
      }
      V.Expected = resultChecksum(*Res);
      Vs.push_back(std::move(V));
    }
  }
  return true;
}

/// A served answer matches when its checksum equals the in-process one
/// to the 9 significant digits the wire carries.
bool checksumMatches(double Got, double Want) {
  return std::fabs(Got - Want) <= 1e-7 * std::max(1.0, std::fabs(Want));
}

struct Reply {
  int Variant = 0;
  bool Traced = false;
  double Latency = 0, Queue = 0, Load = 0, Prep = 0, Kernel = 0;
  double Threads = 0;
  bool Hit = false, Correct = false;
};

/// The closed-loop generator: kConns connections, each with exactly one
/// request in flight, cycling through the seeded mix.  Its state carries
/// over from one serving phase to the next.
class ClosedLoop {
public:
  ClosedLoop(const Args &A, const std::vector<Variant> &Vs,
             std::vector<std::unique_ptr<Conn>> &Conns, Recorder &Rec,
             int64_t &Op, Report &Out)
      : A(A), Vs(Vs), Conns(Conns), Rec(Rec), Op(Op), Out(Out) {
    // Seeded shuffles of all shapes, one after another, so every run
    // sends each shape equally often and only the order depends on the
    // seed (per-app figures must not move with the proportions).
    for (int Cycle = 0; Cycle < 200; ++Cycle) {
      const std::size_t Base = Mix.size();
      for (std::size_t V = 0; V < Vs.size(); ++V)
        Mix.push_back(static_cast<int>(V));
      for (std::size_t I = Vs.size() - 1; I > 0; --I)
        std::swap(Mix[Base + I],
                  Mix[Base + subSeed(A.Seed, 1000 + Base + I) % (I + 1)]);
    }
  }

  /// Serves for \p Seconds, then lets the requests in flight finish;
  /// false when the server stops answering.
  bool phase(double Seconds) {
    const double Start = now();
    for (int C = 0; C < kConns; ++C)
      if (!sendNext(C))
        return false;
    int Open = kConns;
    while (Open > 0) {
      pollfd P[kConns];
      for (int C = 0; C < kConns; ++C)
        P[C] = {Conns[C]->fd(),
                static_cast<short>(InFlight[C] >= 0 ? POLLIN : 0), 0};
      if (::poll(P, kConns, 10000) <= 0) {
        std::fprintf(stderr, "cfvbench: server stopped answering\n");
        return false;
      }
      for (int C = 0; C < kConns; ++C) {
        if (!(P[C].revents & (POLLIN | POLLHUP | POLLERR)))
          continue;
        if (!Conns[C]->readSome()) {
          std::fprintf(stderr, "cfvbench: server closed a connection\n");
          return false;
        }
        std::string Line;
        while (InFlight[C] >= 0 && Conns[C]->popLine(Line)) {
          onReply(C, Line, now());
          InFlight[C] = -1;
          if (now() - Start < Seconds) {
            if (!sendNext(C))
              return false;
          } else {
            --Open;
          }
        }
      }
    }
    Wall += now() - Start;
    return true;
  }

  std::vector<Reply> Replies;
  double Wall = 0; ///< summed over the phases

private:
  bool sendNext(int C) {
    const int V = Mix[static_cast<std::size_t>(Next % Mix.size())];
    const std::string Line = "{\"id\":\"" + std::to_string(Next) + "\"," +
                             Vs[V].Json + "\n";
    // Traced and untraced cycles of the mix alternate, as rounds do in
    // batch runs, so both halves hold the same shapes.
    TracedOf[C] = A.Trace && (Next / static_cast<int64_t>(Vs.size())) % 2 == 1;
    ++Next;
    InFlight[C] = V;
    OpOf[C] = ++Op;
    SentAt[C] = now();
    return Conns[C]->send(Line);
  }

  void onReply(int C, const std::string &Line, double Got) {
    Reply R;
    R.Variant = InFlight[C];
    R.Traced = TracedOf[C];
    R.Latency = Got - SentAt[C];
    R.Queue = jsonNumber(Line, "queue_seconds");
    R.Load = jsonNumber(Line, "load_seconds");
    R.Prep = jsonNumber(Line, "prep_seconds");
    R.Kernel = jsonNumber(Line, "kernel_seconds");
    R.Threads = jsonNumber(Line, "threads");
    R.Hit = jsonNumber(Line, "cache_hit") == 1.0;
    double Sum = jsonNumber(Line, "checksum");
    if (Out.Attempted == A.CorruptOp)
      Sum = Sum * 1.5 + 1.0;
    ++Out.Attempted;
    R.Correct = jsonNumber(Line, "ok") == 1.0 &&
                checksumMatches(Sum, Vs[R.Variant].Expected);
    if (!R.Correct) {
      ++Out.Failed;
      std::fprintf(stderr, "cfvbench: served answer rejected: %s\n",
                   Line.c_str());
    }
    if (R.Traced) {
      // Server-side stages end at the reply; the root's self time is what
      // transport, framing and batching added.
      const int Root = Rec.add("net.request", SentAt[C], Got, -1, OpOf[C]);
      double End = Got;
      struct Stage {
        const char *Name;
        double Seconds;
      };
      const Stage Order[] = {{"service.kernel", R.Kernel},
                             {"service.prep", R.Prep},
                             {"graph.load", R.Load},
                             {"service.queue", R.Queue}};
      for (const Stage &S : Order) {
        const double D =
            std::max(0.0, std::min(S.Seconds, End - SentAt[C]));
        Rec.add(S.Name, End - D, End, Root, OpOf[C]);
        End -= D;
      }
    }
    Replies.push_back(R);
  }

  const Args &A;
  const std::vector<Variant> &Vs;
  std::vector<std::unique_ptr<Conn>> &Conns;
  Recorder &Rec;
  int64_t &Op;
  Report &Out;
  std::vector<int> Mix;
  int64_t Next = 0;
  double SentAt[kConns] = {};
  int InFlight[kConns] = {-1, -1, -1, -1};
  int64_t OpOf[kConns] = {};
  bool TracedOf[kConns] = {};
};

/// Length of one serving phase.  Serving phases alternate with rounds of
/// the in-core controls, so both sample the host across the whole run.
constexpr double kServePhaseSeconds = 1.5;

} // namespace

int runServe(const Args &A, Report &Out) {
  Recorder Rec;
  Rec.setEnabled(A.Trace);
  const double Origin = now();
  int64_t Op = 0;

  constexpr int kSetups = 3;
  std::vector<SetupOut> Setups;
  std::vector<File> Files;
  std::unique_ptr<Server> Srv;
  std::vector<std::unique_ptr<Conn>> Conns;
  for (int S = 0; S < kSetups; ++S) {
    Conns.clear();
    Srv.reset();
    SetupOut T;
    if (!setupServe(A, S, Files, Srv, Conns, T, Rec, ++Op)) {
      std::fprintf(stderr, "cfvbench: serve setup failed\n");
      return 1;
    }
    Setups.push_back(T);
  }
  std::vector<Variant> Vs;
  if (!makeVariants(Files, A.Seed, Vs)) {
    std::fprintf(stderr, "cfvbench: in-process references failed\n");
    return 1;
  }

  // Served requests take milliseconds, too short for steady per-app
  // figures, and agg and moldyn cannot be served (cfv_serve takes graph
  // apps only); so <app>_s comes from cold-1t's calls on cold-1t's
  // inputs, run in this process between serving phases as controls the
  // serving path leaves unchanged.  Their inputs are not part of setup_s.
  SetupTimes ControlSetup;
  const std::unique_ptr<ColdInputs> ControlIn =
      setupCold(A, Rec, ++Op, ControlSetup);
  std::vector<Case> Controls;
  if (!makeColdCases(*ControlIn, Controls))
    return 1;

  // Untimed warm-up: one pass over every shape on one connection.
  for (std::size_t V = 0; V < Vs.size(); ++V) {
    std::string Line;
    if (!Conns[0]->send("{\"id\":\"w\"," + Vs[V].Json + "\n") ||
        !Conns[0]->readLine(Line)) {
      std::fprintf(stderr, "cfvbench: warm-up request failed\n");
      return 1;
    }
  }
  // Peak memory after the cold loads and one pass over every shape, one
  // request at a time.  Read after the concurrent phases instead, it was
  // bimodal over ten seeds (121-150 MB, IQR 17.5%): the transient peak
  // depends on which requests happen to overlap on the two workers.
  const double ServerRss = Srv->peakRssMb();
  if (!warmUp(Controls))
    return 1;

  const std::map<std::string, double> M0 = scrapeMetrics(Srv->port());
  ClosedLoop Load(A, Vs, Conns, Rec, Op, Out);
  LoopStats L;
  const double Start = now();
  for (int Cycle = 0; Cycle == 0 || now() - Start < A.Seconds; ++Cycle) {
    if (!Load.phase(kServePhaseSeconds))
      return 1;
    runRound(Controls, A, A.Trace && Cycle % 2 == 1, Rec, Op, Out, L);
  }
  const std::map<std::string, double> M1 = scrapeMetrics(Srv->port());
  Conns.clear();
  Srv->stop();

  std::vector<double> SetupS, Gen, PerGraph, ColdLoad;
  for (const SetupOut &T : Setups) {
    SetupS.push_back(T.Total);
    Gen.push_back(T.Gen);
    PerGraph.insert(PerGraph.end(), T.PerGraphGen.begin(),
                    T.PerGraphGen.end());
    ColdLoad.insert(ColdLoad.end(), T.ColdLoadMs.begin(), T.ColdLoadMs.end());
  }
  const std::vector<Reply> &Replies = Load.Replies;
  std::vector<double> Lat;
  int64_t Correct = 0;
  for (const Reply &R : Replies) {
    Lat.push_back(R.Latency);
    Correct += R.Correct;
  }

  if (!A.Trace) {
    Out.set("setup_s", median(SetupS), "s");
    Out.set("peak_rss_mb", ServerRss, "MB");
    for (const char *App : kBatchApps) {
      std::vector<double> W;
      for (const Sample &S : L.Samples[App])
        W.push_back(S.Wall);
      Out.set(std::string(App) + "_s", median(W), "s");
    }
    Out.set("serve_rps", Load.Wall > 0 ? Correct / Load.Wall : 0.0, "1/s");
    Out.set("req_p50_ms", 1e3 * quantile(Lat, 0.5), "ms");
    Out.set("req_p90_ms", 1e3 * quantile(Lat, 0.9), "ms");
    return 0;
  }

  // Layer probes on the served graphs, timed from outside (the files are
  // read once, outside any span).
  std::vector<graph::EdgeList> Served;
  for (const File &F : Files)
    if (Expected<graph::EdgeList> G = graph::readSnapEdgeList(F.Path); G.ok())
      Served.push_back(std::move(*G));
  std::vector<const graph::EdgeList *> ServedPtrs;
  for (const graph::EdgeList &G : Served)
    ServedPtrs.push_back(&G);
  ProbeTimes Probes;
  MapProbe Map;
  if (!Served.empty()) {
    for (int R = 0; R < kProbeRepeats; ++R)
      probeLayers(ServedPtrs, cooOf(Served[0]), Rec, Op, Probes);
    probeMapped(Served.back(), A.WorkDir + "/probe.cfvm", Rec, Op, Out, Map);
  }

  // Per-layer numbers from the traced requests.
  const auto Delta = [&](const std::string &Name) {
    const auto A0 = M0.find(Name), A1 = M1.find(Name);
    return (A0 != M0.end() && A1 != M1.end()) ? A1->second - A0->second : 0.0;
  };
  std::vector<double> Queue, Prep, Kernel, Traced, Untraced;
  double Hits = 0, Threads = 0;
  for (const Reply &R : Replies) {
    (R.Traced ? Traced : Untraced).push_back(R.Latency);
    Hits += R.Hit;
    Threads = std::max(Threads, R.Threads);
    if (!R.Traced)
      continue;
    Queue.push_back(1e3 * R.Queue);
    Prep.push_back(1e3 * R.Prep);
    Kernel.push_back(1e3 * R.Kernel);
  }

  Out.set("graph.gen_s", median(Gen), "s");
  Out.set("graph.csr_s", median(Probes.Csr), "s");
  Out.set("graph.cfvm_write_s", Map.WriteS, "s");
  Out.set("graph.map_open_s", Map.OpenS, "s");
  Out.set("graph.map_evictions", Map.Evictions, "count");
  Out.set("graph.map_refaults", Map.Refaults, "count");
  Out.set("graph.mapped_wcc_s", median(Map.CallS), "s");
  Out.set("graph.cold_load_ms", median(ColdLoad), "ms");
  Out.set("inspector.tiling_s", median(Probes.Tiling), "s");
  Out.set("inspector.tiles", static_cast<double>(Probes.Tiles), "count");
  Out.set("pattern.classify_s", median(Probes.Classify), "s");
  // The app layers describe what <app>_s measures: the control calls.
  reportTileMix(L, Out);
  for (const char *App : kBatchApps)
    reportAppLayers(App, L.Samples[App], Rec, Out);

  const double N = Replies.empty() ? 1.0 : static_cast<double>(Replies.size());
  const double Batches = Delta("cfv_net_batch_size_count");
  Out.set("core.engine.threads", Threads, "count");
  Out.set("core.engine.launches", Delta("cfv_engine_runs_total") / N, "count");
  Out.set("service.queue_ms", median(Queue), "ms");
  Out.set("service.prep_ms", median(Prep), "ms");
  Out.set("service.kernel_ms", median(Kernel), "ms");
  Out.set("service.cache_hit_frac", Hits / N, "frac");
  Out.set("net.overhead_ms", 1e3 * Rec.medianSelf("net.request"), "ms");
  Out.set("net.batches", Batches, "count");
  Out.set("net.batch_size_mean",
          Batches > 0 ? Delta("cfv_net_batch_size_sum") / Batches : 0.0,
          "count");
  Out.set("bench.host_ref_s", median(L.HostRef), "s");
  const double U = median(Untraced);
  Out.set("bench.trace_overhead_frac", U > 0 ? median(Traced) / U - 1.0 : 0.0,
          "frac");

  if (!A.TraceOut.empty() && !Rec.write(A.TraceOut, Origin))
    std::fprintf(stderr, "cfvbench: cannot write %s\n", A.TraceOut.c_str());
  return 0;
}

} // namespace perfbench
