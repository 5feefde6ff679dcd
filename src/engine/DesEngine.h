//===- engine/DesEngine.h - Deterministic DES backend -----------*- C++ -*-===//
//
// Part of the cliffedge project: a reproduction of "Cliff-Edge Consensus:
// Agreeing on the Precipice" (Taiani, Porter, Coulson, Raynal, PaCT 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The reference backend: a thin adapter running one EngineJob through the
/// single-threaded deterministic discrete-event stack (sim::Simulator +
/// sim::Network + detector::PerfectFailureDetector via
/// trace::ScenarioRunner, which hosts the nodes on trace::HostCore) and
/// harvesting its products into an EngineResult with the core's harvest.
/// Behaviour is bit-identical to driving ScenarioRunner directly, so
/// routing the campaign and CLI paths through the engine interface changed
/// no observable output.
///
//===----------------------------------------------------------------------===//

#ifndef CLIFFEDGE_ENGINE_DESENGINE_H
#define CLIFFEDGE_ENGINE_DESENGINE_H

#include "engine/Engine.h"

namespace cliffedge {
namespace engine {

/// Deterministic discrete-event backend (the paper's mono-threaded model).
class DesEngine : public Engine {
public:
  const char *name() const override { return "des"; }
  EngineResult run(const EngineJob &Job) override;
};

} // namespace engine
} // namespace cliffedge

#endif // CLIFFEDGE_ENGINE_DESENGINE_H
