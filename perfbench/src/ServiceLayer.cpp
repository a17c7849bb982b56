//===- ServiceLayer.cpp - The service layer, measured from outside --------===//
//
// The request path of `dprle serve --shards=2`, driven one request at a
// time in one process, as part of the traced session_edit run: each NDJSON
// line is routed with Router::shardFor (the router compiles the request to
// hash it) and answered by that shard's SolverService::handleLine
// (protocol parsing, the solve or decide, the response object); the two
// shards are in-process services with one worker each. Router::shardFor
// and parseRequest are timed from outside, the solve time is read from
// each response, and the stream is then sent over a Unix socket to a
// Listener in front of an in-process SolverService for the round trip.
//
// Requests are `solve` lines built from Figure 11/12 sink paths and
// `decide` lines over the corpus's filter languages, drawn with
// replacement under a seeded Zipf skew, so both repeated requests (warm
// caches, which structural routing keeps on one shard) and first-seen
// ones occur.
//
// This is a per-layer measurement only. As a gated workload of its own
// (serve_closed) the stream could not be held steady on a 4-core host:
// its op_ms.p99 spread 0.31-0.35 between runs of the same code.
//
// Reference: every verdict must equal what a separate SolverService
// answered for the same request, cold, before the measurement.
//
//===----------------------------------------------------------------------===//

#include "Inputs.h"
#include "Workloads.h"

#include "service/FdIo.h"
#include "service/Listener.h"
#include "service/Protocol.h"
#include "service/Router.h"
#include "service/Service.h"
#include "support/Json.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

using namespace pb;
using namespace dprle;
using namespace dprle::service;

namespace {

constexpr unsigned Shards = 2;
/// Requests in the stream.
constexpr size_t StreamLength = 2000;

ServiceOptions shardOptions() {
  ServiceOptions Opts;
  Opts.Jobs = 1;
  return Opts;
}

/// The verdict-relevant part of a response: satisfiable + assignments for
/// a solve, the answer for a decide, or the error code.
std::string verdictKey(const Json &Resp) {
  const Json *Ok = Resp.find("ok");
  if (!Ok || !Ok->isBool())
    return "malformed";
  if (!Ok->asBool()) {
    const Json *Err = Resp.find("error");
    const Json *Code = Err ? Err->find("code") : nullptr;
    return "error:" + (Code ? Code->asString() : std::string("?"));
  }
  const Json *Result = Resp.find("result");
  if (!Result)
    return "malformed";
  Json Key = Json::object();
  for (const char *Field : {"satisfiable", "assignments", "query", "answer"})
    if (const Json *F = Result->find(Field))
      Key[Field] = *F;
  return Key.dump(0);
}

/// The shard-reported solve time of a solve response; -1 for a decide.
double solveSeconds(const Json &Resp) {
  const Json *Result = Resp.find("result");
  const Json *Solver = Result ? Result->find("solver") : nullptr;
  const Json *S = Solver ? Solver->find("solve_seconds") : nullptr;
  return S && S->isNumber() ? S->asDouble() : -1;
}

/// The stream and its references, fixed before the measurement starts.
struct Prepared {
  ServePlan Plan;
  /// The request line of each stream position.
  std::vector<std::string> Lines;
  /// The reference verdict of each distinct request body.
  std::vector<std::string> RefKeys;
};

Prepared prepare(uint64_t Seed) {
  Prepared P;
  P.Plan = servePlan(Seed, StreamLength);
  for (size_t I = 0; I != StreamLength; ++I)
    P.Lines.push_back(requestLine(I, P.Plan.Bodies[P.Plan.Stream[I]]));
  clearProgramCaches();
  SolverService Reference(shardOptions());
  for (const std::string &Body : P.Plan.Bodies)
    P.RefKeys.push_back(
        verdictKey(Reference.handleLine(requestLine(0, Body))));
  return P;
}

/// What the pass times from outside.
struct LayerTimes {
  double RouteS = 0, ParseS = 0;
  double Lines = 0;
  std::vector<double> SolveMs;
  std::vector<double> PerShard = std::vector<double>(Shards, 0);
};

/// One pass over the stream on fresh shards with cleared caches, timing
/// the router and the protocol parser apart from the request; every
/// verdict is checked against the reference.
void timedPass(const Router &Route, const Prepared &P, RunResult &R,
               LayerTimes &T) {
  clearProgramCaches();
  std::vector<std::unique_ptr<SolverService>> Shard;
  for (unsigned S = 0; S != Shards; ++S)
    Shard.push_back(std::make_unique<SolverService>(shardOptions()));
  for (size_t I = 0; I != P.Lines.size(); ++I) {
    const std::string &Line = P.Lines[I];
    SteadyClock::time_point Start = SteadyClock::now();
    unsigned S = Route.shardFor(Line) % Shards;
    T.RouteS += secondsSince(Start);
    ++T.PerShard[S];
    Json Resp = Shard[S]->handleLine(Line);
    ++R.Attempted;
    if (verdictKey(Resp) != P.RefKeys[P.Plan.Stream[I]])
      R.fail("request " + std::to_string(I) +
             ": verdict differs from the in-process reference");
    Start = SteadyClock::now();
    parseRequest(Line);
    T.ParseS += secondsSince(Start);
    ++T.Lines;
    double Solve = solveSeconds(Resp);
    if (Solve >= 0)
      T.SolveMs.push_back(Solve * 1e3);
  }
}

/// Round trips of the stream over one Unix-socket connection to a
/// Listener in front of an in-process SolverService: the median round
/// trip, and the median round trip minus the reported solve time (solve
/// requests). A socket that cannot be set up, or a request that goes
/// unanswered, fails the run.
void socketRoundTrips(const Prepared &P, RunResult &R, double &RttMs,
                      double &OverheadMs) {
  clearProgramCaches();
  SolverService Service(shardOptions());
  Listener Front(Service, ListenerOptions{});
  const std::string Path =
      "perfbench-" + std::to_string(::getpid()) + ".sock";
  std::string Err;
  if (!Front.listenUnix(Path, &Err)) {
    R.fail("listen on " + Path + ": " + Err);
    return;
  }
  Front.start();
  OwnedFd Fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  struct sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size());
  bool Ok = Fd.valid() &&
            ::connect(Fd.get(), reinterpret_cast<struct sockaddr *>(&Addr),
                      sizeof(Addr)) == 0;
  if (!Ok)
    R.fail("cannot connect to " + Path);
  // A service that stops answering fails the run instead of hanging it.
  struct timeval Timeout = {30, 0};
  ::setsockopt(Fd.get(), SOL_SOCKET, SO_RCVTIMEO, &Timeout, sizeof(Timeout));
  FdLineReader Reader(Fd.get());
  std::vector<double> Rtt, Overhead;
  for (size_t I = 0; Ok && I != P.Lines.size(); ++I) {
    const std::string Line = P.Lines[I] + "\n";
    SteadyClock::time_point Start = SteadyClock::now();
    std::optional<std::string> Got;
    if (writeAllFd(Fd.get(), Line.data(), Line.size()))
      Got = Reader.readLine();
    double Seconds = secondsSince(Start);
    std::optional<Json> Resp = Got ? Json::parse(*Got) : std::nullopt;
    ++R.Attempted;
    if (!Resp) {
      R.fail("socket request " + std::to_string(I) + ": no response");
      Ok = false;
      break;
    }
    if (verdictKey(*Resp) != P.RefKeys[P.Plan.Stream[I]])
      R.fail("socket request " + std::to_string(I) +
             ": verdict differs from the in-process reference");
    Rtt.push_back(Seconds * 1e3);
    double Solve = solveSeconds(*Resp);
    if (Solve >= 0)
      Overhead.push_back((Seconds - Solve) * 1e3);
  }
  Fd.reset();
  Front.stop();
  ::unlink(Path.c_str());
  RttMs = median(Rtt);
  OverheadMs = median(Overhead);
}

} // namespace

void pb::measureServiceLayer(uint64_t Seed, RunResult &R, LayerReport &L) {
  RouterOptions RouteOpts;
  RouteOpts.Shards = Shards;
  RouteOpts.Worker = shardOptions();
  // Only shardFor is used: the router is never started, so no process is
  // forked.
  const Router Route(RouteOpts);
  const Prepared P = prepare(Seed);
  LayerTimes T;
  timedPass(Route, P, R, T);
  socketRoundTrips(P, R, L["serve.rtt_ms.p50"], L["serve.overhead_ms.p50"]);
  L["serve.solve_ms.p50"] = median(T.SolveMs);
  L["serve.route_ms"] = T.RouteS * 1e3 / T.Lines;
  L["serve.parse_ms"] = T.ParseS * 1e3 / T.Lines;
  L["router.shard_balance"] =
      *std::max_element(T.PerShard.begin(), T.PerShard.end()) /
      (T.Lines / Shards);
}
