//===- perfbench/src/Spans.cpp - In-memory spans around layer calls ------===//
//
// Part of the cliffedge project: a reproduction of "Cliff-Edge Consensus:
// Agreeing on the Precipice" (Taiani, Porter, Coulson, Raynal, PaCT 2013).
//
//===----------------------------------------------------------------------===//

#include "Spans.h"

#include <chrono>
#include <cstdio>
#include <cstring>

namespace perfbench {

int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int32_t SpanLog::open(const char *Name, uint32_t Op) {
  if (!Enabled)
    return -1;
  Span S;
  S.Name = Name;
  S.Op = Op;
  S.Parent = Open.empty() ? -1 : Open.back();
  S.StartNs = nowNs();
  Spans.push_back(S);
  int32_t Idx = static_cast<int32_t>(Spans.size() - 1);
  Open.push_back(Idx);
  return Idx;
}

void SpanLog::close(int32_t Idx) {
  if (Idx < 0)
    return;
  Spans[Idx].EndNs = nowNs();
  Open.pop_back();
}

std::vector<int64_t> SpanLog::selfNs() const {
  std::vector<int64_t> Self(Spans.size());
  for (size_t I = 0; I < Spans.size(); ++I)
    Self[I] = Spans[I].EndNs - Spans[I].StartNs;
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      Self[S.Parent] -= S.EndNs - S.StartNs;
  return Self;
}

static std::string layerOf(const char *Name) {
  const char *Dot = std::strchr(Name, '.');
  return Dot ? std::string(Name, Dot) : std::string(Name);
}

std::map<std::string, int64_t>
SpanLog::selfNsByLayer(const char *Root) const {
  std::vector<int64_t> Self = selfNs();
  // Spans are appended in open order, so a parent precedes its children
  // and one forward pass resolves every span's root.
  std::vector<int32_t> RootOf(Spans.size());
  std::map<std::string, int64_t> Out;
  for (size_t I = 0; I < Spans.size(); ++I) {
    int32_t P = Spans[I].Parent;
    RootOf[I] = P < 0 ? static_cast<int32_t>(I) : RootOf[P];
    if (std::strcmp(Spans[RootOf[I]].Name, Root) == 0)
      Out[layerOf(Spans[I].Name)] += Self[I];
  }
  return Out;
}

std::vector<double> SpanLog::durationsMs(const char *Name) const {
  std::vector<double> Out;
  for (const Span &S : Spans)
    if (std::strcmp(S.Name, Name) == 0)
      Out.push_back(static_cast<double>(S.EndNs - S.StartNs) / 1e6);
  return Out;
}

bool SpanLog::writeCsv(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::vector<int64_t> Self = selfNs();
  std::fprintf(F, "index,parent,op,name,start_ns,end_ns,self_ns\n");
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F, "%zu,%d,%u,%s,%lld,%lld,%lld\n", I, S.Parent, S.Op,
                 S.Name, static_cast<long long>(S.StartNs),
                 static_cast<long long>(S.EndNs),
                 static_cast<long long>(Self[I]));
  }
  return std::fclose(F) == 0;
}

} // namespace perfbench
