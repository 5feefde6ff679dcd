//===- engine/Engine.cpp - Pluggable execution backends --------------------===//
//
// Part of the cliffedge project: a reproduction of "Cliff-Edge Consensus:
// Agreeing on the Precipice" (Taiani, Porter, Coulson, Raynal, PaCT 2013).
//
//===----------------------------------------------------------------------===//

#include "engine/Engine.h"

#include "engine/DesEngine.h"
#include "engine/ShardedEngine.h"

using namespace cliffedge;
using namespace cliffedge::engine;

const char *engine::backendName(BackendKind K) {
  switch (K) {
  case BackendKind::Des:
    return "des";
  case BackendKind::Sharded:
    return "sharded";
  }
  return "?";
}

bool engine::parseBackendName(const std::string &Tok, BackendKind &Out,
                              std::string &Error) {
  if (Tok == "des")
    Out = BackendKind::Des;
  else if (Tok == "sharded")
    Out = BackendKind::Sharded;
  else {
    Error = "unknown backend '" + Tok + "' (want des | sharded)";
    return false;
  }
  return true;
}

trace::CheckInput engine::toCheckInput(const EngineResult &R,
                                       const graph::Graph &G) {
  trace::CheckInput In;
  In.G = &G;
  In.Faulty = R.Faulty;
  In.CrashTimesRef = &R.CrashTimes;
  In.Decisions = R.Decisions;
  In.SendLog = &R.SendLog;
  return In;
}

std::vector<NodeMaxView> engine::correctMaxViews(const EngineResult &R) {
  std::vector<NodeMaxView> Out;
  for (const NodeMaxView &E : R.FinalMaxViews)
    if (!R.Faulty.contains(E.first))
      Out.push_back(E);
  return Out;
}

std::unique_ptr<Engine> engine::makeEngine(BackendKind K, EngineOptions Opts) {
  switch (K) {
  case BackendKind::Des:
    return std::make_unique<DesEngine>();
  case BackendKind::Sharded:
    return std::make_unique<ShardedEngine>(Opts);
  }
  return nullptr;
}
