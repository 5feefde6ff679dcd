//===- engine/DesEngine.cpp - Deterministic DES backend --------------------===//
//
// Part of the cliffedge project: a reproduction of "Cliff-Edge Consensus:
// Agreeing on the Precipice" (Taiani, Porter, Coulson, Raynal, PaCT 2013).
//
//===----------------------------------------------------------------------===//

#include "engine/DesEngine.h"

using namespace cliffedge;
using namespace cliffedge::engine;

EngineResult DesEngine::run(const EngineJob &Job) {
  trace::RunnerOptions Options = Job.Options;
  // The job seed is the canonical run seed: both engines derive the fault
  // plane's per-channel streams from it, so a (spec, seed) pair pins the
  // same per-channel fault schedule on every backend.
  Options.LinkSeed = Job.Seed;
  // EngineResult carries no protocol-event log (the sharded engine records
  // none either), so recording one would copy a Region per transition
  // only to throw it away. Direct ScenarioRunner users still record.
  Options.RecordProtocolEvents = false;
  trace::ScenarioRunner Runner(*Job.G, std::move(Options));
  Job.Plan->apply(Runner);

  EngineResult R;
  R.Events = Runner.run();
  R.Quiesced = Runner.simulator().idle();
  R.Faulty = Runner.faultySet();
  R.CrashTimes = Runner.hostCore().crashTimes();
  R.Stats = Runner.netStats();
  R.FinalMaxViews = Runner.hostCore().finalMaxViews();
  // The runner dies with this scope: move its logs out instead of copying.
  R.Decisions = Runner.takeDecisions();
  R.SendLog = Runner.takeSendLog();
  return R;
}
