//===- scenario/Parse.cpp - .scn scenario parser ---------------------------===//
//
// Part of the cliffedge project: a reproduction of "Cliff-Edge Consensus:
// Agreeing on the Precipice" (Taiani, Porter, Coulson, Raynal, PaCT 2013).
//
//===----------------------------------------------------------------------===//

#include "scenario/Parse.h"

#include "support/StrUtil.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>

using namespace cliffedge;
using namespace cliffedge::scenario;

std::string Diag::str(const std::string &File) const {
  std::string Prefix = File.empty() ? std::string() : File + ":";
  return Prefix + formatStr("%u:%u: %s", Line, Col, Message.c_str());
}

std::string ParseResult::diagText(const std::string &File) const {
  return joinMapped(Diags, "\n",
                    [&File](const Diag &D) { return D.str(File); });
}

namespace {

/// One whitespace-delimited token with its 1-based start column.
struct Token {
  std::string Text;
  unsigned Col = 0;
};

/// Splits \p Line into tokens, dropping everything from the first '#'.
std::vector<Token> tokenize(const std::string &Line) {
  std::vector<Token> Toks;
  size_t I = 0, End = Line.find('#');
  if (End == std::string::npos)
    End = Line.size();
  while (I < End) {
    if (Line[I] == ' ' || Line[I] == '\t') {
      ++I;
      continue;
    }
    size_t Start = I;
    while (I < End && Line[I] != ' ' && Line[I] != '\t')
      ++I;
    Toks.push_back(
        Token{Line.substr(Start, I - Start), static_cast<unsigned>(Start + 1)});
  }
  return Toks;
}

/// Stateful per-file parser: accumulates into Result.S and Result.Diags.
class SpecParser {
public:
  ParseResult run(const std::string &Text) {
    // The implicit first epoch starts before any directive.
    EpochStartLines.push_back(1);
    size_t Pos = 0;
    unsigned LineNo = 0;
    while (Pos <= Text.size()) {
      size_t Eol = Text.find('\n', Pos);
      std::string Line = Text.substr(
          Pos, Eol == std::string::npos ? std::string::npos : Eol - Pos);
      if (!Line.empty() && Line.back() == '\r')
        Line.pop_back();
      ++LineNo;
      parseLine(Line, LineNo);
      if (Eol == std::string::npos)
        break;
      Pos = Eol + 1;
    }
    finish();
    Result.Ok = Result.Diags.empty();
    return std::move(Result);
  }

private:
  ParseResult Result;
  std::vector<std::string> Seen; ///< Scalar directives already parsed.
  std::vector<unsigned> EpochStartLines;
  unsigned TransportLine = 0; ///< Line of 'transport', for finish() diags.

  void error(unsigned Line, unsigned Col, std::string Message) {
    Result.Diags.push_back(Diag{Line, Col, std::move(Message)});
  }

  /// Strict unsigned parse; diagnoses and returns false on junk.
  bool parseU64(const Token &T, unsigned Line, uint64_t &Out,
                const char *What) {
    char *End = nullptr;
    Out = std::strtoull(T.Text.c_str(), &End, 10);
    if (T.Text.empty() || *End != '\0' || T.Text[0] == '-') {
      error(Line, T.Col,
            formatStr("expected %s, got '%s'", What, T.Text.c_str()));
      return false;
    }
    return true;
  }

  /// Strict signed parse (crash-shift deltas); diagnoses junk.
  bool parseI64(const Token &T, unsigned Line, int64_t &Out,
                const char *What) {
    char *End = nullptr;
    Out = std::strtoll(T.Text.c_str(), &End, 10);
    if (T.Text.empty() || *End != '\0') {
      error(Line, T.Col,
            formatStr("expected %s, got '%s'", What, T.Text.c_str()));
      return false;
    }
    return true;
  }

  /// Marks a one-per-file directive as seen; diagnoses duplicates.
  bool once(const Token &Directive, unsigned Line) {
    for (const std::string &S : Seen)
      if (S == Directive.Text) {
        error(Line, Directive.Col,
              "duplicate '" + Directive.Text + "' directive");
        return false;
      }
    Seen.push_back(Directive.Text);
    return true;
  }

  /// Diagnoses tokens left over after a complete directive.
  bool noTrailing(const std::vector<Token> &Toks, size_t From,
                  unsigned Line) {
    if (From >= Toks.size())
      return true;
    error(Line, Toks[From].Col,
          "unexpected trailing token '" + Toks[From].Text + "'");
    return false;
  }

  /// Cheap syntactic topology validation. Size ranges (torus below 3x3,
  /// tree arity 0, node counts past the id range, ...) are refused at
  /// materialization, by scenario::buildTopology.
  bool checkTopologyShape(const Token &T, unsigned Line) {
    size_t Colon = T.Text.find(':');
    std::string Kind =
        Colon == std::string::npos ? T.Text : T.Text.substr(0, Colon);
    static const char *Kinds[] = {"fig1", "grid",      "torus", "ring",
                                  "line", "tree",      "hypercube",
                                  "chord", "ba",       "er",    "geo"};
    bool Known = false;
    for (const char *K : Kinds)
      Known |= Kind == K;
    if (!Known) {
      error(Line, T.Col, "unknown topology kind '" + Kind + "'");
      return false;
    }
    if (Kind == "grid" || Kind == "torus") {
      std::string Rest =
          Colon == std::string::npos ? std::string() : T.Text.substr(Colon + 1);
      size_t X = Rest.find('x');
      if (X == std::string::npos || std::atoi(Rest.c_str()) <= 0 ||
          std::atoi(Rest.c_str() + X + 1) <= 0) {
        error(Line, T.Col,
              "bad " + Kind + " size '" + Rest + "' (want WxH)");
        return false;
      }
    }
    return true;
  }

  void parseLine(const std::string &Line, unsigned LineNo);
  void parseCrash(const std::vector<Token> &Toks, unsigned LineNo);
  void parseSweep(const std::vector<Token> &Toks, unsigned LineNo);
  void parseLatency(const std::vector<Token> &Toks, unsigned LineNo);
  void parsePerturb(const std::vector<Token> &Toks, unsigned LineNo);
  void finish();
};

void SpecParser::parseLine(const std::string &Line, unsigned LineNo) {
  std::vector<Token> Toks = tokenize(Line);
  if (Toks.empty())
    return;
  const Token &D = Toks[0];
  Spec &S = Result.S;

  auto WantValue = [&](const char *What) -> const Token * {
    if (Toks.size() < 2) {
      error(LineNo, D.Col,
            formatStr("'%s' needs %s", D.Text.c_str(), What));
      return nullptr;
    }
    return &Toks[1];
  };

  if (D.Text == "scenario") {
    if (!once(D, LineNo))
      return;
    const Token *V = WantValue("a name");
    if (!V || !noTrailing(Toks, 2, LineNo))
      return;
    for (char C : V->Text)
      if (!std::isalnum(static_cast<unsigned char>(C)) && C != '-' &&
          C != '_' && C != '.') {
        error(LineNo, V->Col,
              "scenario name may only contain [A-Za-z0-9._-]");
        return;
      }
    S.Name = V->Text;
  } else if (D.Text == "topology") {
    if (!once(D, LineNo))
      return;
    const Token *V = WantValue("a topology spec");
    if (!V || !noTrailing(Toks, 2, LineNo))
      return;
    if (checkTopologyShape(*V, LineNo))
      S.Topology = V->Text;
  } else if (D.Text == "seeds") {
    if (!once(D, LineNo))
      return;
    const Token *V = WantValue("N or LO..HI");
    if (!V || !noTrailing(Toks, 2, LineNo))
      return;
    size_t Dots = V->Text.find("..");
    if (Dots == std::string::npos) {
      uint64_t N;
      if (!parseU64(*V, LineNo, N, "a seed"))
        return;
      S.SeedLo = S.SeedHi = N;
    } else {
      Token Lo{V->Text.substr(0, Dots), V->Col};
      Token Hi{V->Text.substr(Dots + 2),
               V->Col + static_cast<unsigned>(Dots) + 2};
      uint64_t LoV, HiV;
      if (!parseU64(Lo, LineNo, LoV, "a seed") ||
          !parseU64(Hi, LineNo, HiV, "a seed"))
        return;
      if (HiV < LoV) {
        error(LineNo, V->Col, "seed range is empty (hi < lo)");
        return;
      }
      S.SeedLo = LoV;
      S.SeedHi = HiV;
    }
  } else if (D.Text == "latency") {
    if (once(D, LineNo))
      parseLatency(Toks, LineNo);
  } else if (D.Text == "link") {
    if (!once(D, LineNo))
      return;
    if (Toks.size() < 2) {
      error(LineNo, D.Col,
            "'link' needs none | reliable | drop:P dup:P reorder:N rto:N "
            "lat:N");
      return;
    }
    net::LinkSpec L;
    uint32_t Seen = 0;
    for (size_t I = 1; I < Toks.size(); ++I) {
      std::string Err;
      if (!net::parseLinkField(Toks[I].Text, L, Seen, Err)) {
        error(LineNo, Toks[I].Col, Err);
        return;
      }
    }
    net::normalizeLinkSpec(L);
    S.Link = L;
  } else if (D.Text == "detect") {
    if (!once(D, LineNo))
      return;
    const Token *V = WantValue("a tick count");
    if (V && noTrailing(Toks, 2, LineNo))
      parseU64(*V, LineNo, S.Detect, "a tick count");
  } else if (D.Text == "ranking") {
    if (!once(D, LineNo))
      return;
    const Token *V = WantValue("a ranking kind");
    if (!V || !noTrailing(Toks, 2, LineNo))
      return;
    std::string Err;
    if (!applyOverride(S, "ranking", V->Text, Err))
      error(LineNo, V->Col, Err);
  } else if (D.Text == "backend") {
    if (!once(D, LineNo))
      return;
    const Token *V = WantValue("a backend (des | sharded)");
    if (!V || !noTrailing(Toks, 2, LineNo))
      return;
    std::string Err;
    if (!applyOverride(S, "backend", V->Text, Err))
      error(LineNo, V->Col, Err);
  } else if (D.Text == "transport") {
    if (!once(D, LineNo))
      return;
    const Token *V = WantValue("a transport (sim | proc)");
    if (!V || !noTrailing(Toks, 2, LineNo))
      return;
    std::string Err;
    if (!applyOverride(S, "transport", V->Text, Err)) {
      error(LineNo, V->Col, Err);
      return;
    }
    TransportLine = LineNo;
  } else if (D.Text == "early-termination" || D.Text == "check" ||
             D.Text == "streaming") {
    if (!once(D, LineNo))
      return;
    const Token *V = WantValue("on or off");
    if (!V || !noTrailing(Toks, 2, LineNo))
      return;
    if (V->Text != "on" && V->Text != "off") {
      error(LineNo, V->Col,
            "expected 'on' or 'off', got '" + V->Text + "'");
      return;
    }
    bool On = V->Text == "on";
    if (D.Text == "check")
      S.Check = On;
    else if (D.Text == "streaming")
      S.Streaming = On;
    else
      S.EarlyTermination = On;
  } else if (D.Text == "service") {
    if (!once(D, LineNo))
      return;
    const Token *V = WantValue("an epoch count");
    if (!V || !noTrailing(Toks, 2, LineNo))
      return;
    if (!parseU64(*V, LineNo, S.ServiceEpochs, "an epoch count"))
      return;
    if (S.ServiceEpochs == 0)
      error(LineNo, V->Col, "'service' needs at least one epoch");
  } else if (D.Text == "churn") {
    if (!once(D, LineNo))
      return;
    // churn rate R size S horizon H — keyworded so the directive reads as
    // the workload it generates; all three are required.
    if (Toks.size() != 7 || Toks[1].Text != "rate" ||
        Toks[3].Text != "size" || Toks[5].Text != "horizon") {
      error(LineNo, D.Col, "'churn' takes: rate R size S horizon H");
      return;
    }
    if (!parseU64(Toks[2], LineNo, S.ChurnRate, "a mean outage count") ||
        !parseU64(Toks[4], LineNo, S.ChurnSize, "a region size") ||
        !parseU64(Toks[6], LineNo, S.ChurnHorizon, "a tick window"))
      return;
    if (S.ChurnRate == 0)
      error(LineNo, Toks[2].Col, "churn rate must be at least 1");
    if (S.ChurnSize == 0)
      error(LineNo, Toks[4].Col, "churn size must be at least 1");
  } else if (D.Text == "max-events") {
    if (!once(D, LineNo))
      return;
    const Token *V = WantValue("an event count");
    if (V && noTrailing(Toks, 2, LineNo))
      parseU64(*V, LineNo, S.MaxEvents, "an event count");
  } else if (D.Text == "max-faulty") {
    if (!once(D, LineNo))
      return;
    const Token *V = WantValue("a node count");
    if (V && noTrailing(Toks, 2, LineNo))
      parseU64(*V, LineNo, S.MaxFaulty, "a node count");
  } else if (D.Text == "perturb") {
    parsePerturb(Toks, LineNo);
  } else if (D.Text == "objective") {
    if (!once(D, LineNo))
      return;
    const Token *V = WantValue("an objective name");
    if (!V || !noTrailing(Toks, 2, LineNo))
      return;
    // Purely syntactic here: the search plane validates the name against
    // its objective registry, so a repro parses even if its objective is
    // later renamed or retired.
    for (char C : V->Text)
      if (!std::islower(static_cast<unsigned char>(C)) &&
          !std::isdigit(static_cast<unsigned char>(C)) && C != '-') {
        error(LineNo, V->Col, "objective name may only contain [a-z0-9-]");
        return;
      }
    S.Objective = V->Text;
  } else if (D.Text == "expect") {
    if (!once(D, LineNo))
      return;
    const Token *V = WantValue("ok or violation");
    if (!V || !noTrailing(Toks, 2, LineNo))
      return;
    if (V->Text == "ok")
      S.Expect = Expectation::Ok;
    else if (V->Text == "violation")
      S.Expect = Expectation::Violation;
    else
      error(LineNo, V->Col,
            "expected 'ok' or 'violation', got '" + V->Text + "'");
  } else if (D.Text == "sweep") {
    parseSweep(Toks, LineNo);
  } else if (D.Text == "crash") {
    parseCrash(Toks, LineNo);
  } else if (D.Text == "epoch") {
    if (!noTrailing(Toks, 1, LineNo))
      return;
    if (S.Epochs.back().empty())
      error(LineNo, D.Col,
            formatStr("epoch %zu has no crash directives", S.Epochs.size()));
    S.Epochs.emplace_back();
    EpochStartLines.push_back(LineNo);
  } else {
    error(LineNo, D.Col, "unknown directive '" + D.Text + "'");
  }
}

void SpecParser::parseLatency(const std::vector<Token> &Toks,
                              unsigned LineNo) {
  LatencySpec L;
  if (Toks.size() < 2) {
    error(LineNo, Toks[0].Col,
          "'latency' needs a model: fixed T | uniform LO HI | "
          "spiky BASE P FACTOR");
    return;
  }
  const Token &Kind = Toks[1];
  uint64_t A = 0, B = 0, P = 0;
  if (Kind.Text == "fixed") {
    if (Toks.size() != 3) {
      error(LineNo, Kind.Col, "'latency fixed' takes one value: T");
      return;
    }
    if (!parseU64(Toks[2], LineNo, A, "a tick count"))
      return;
    L.K = LatencySpec::Kind::Fixed;
    L.A = A;
  } else if (Kind.Text == "uniform") {
    if (Toks.size() != 4) {
      error(LineNo, Kind.Col, "'latency uniform' takes two values: LO HI");
      return;
    }
    if (!parseU64(Toks[2], LineNo, A, "a tick count") ||
        !parseU64(Toks[3], LineNo, B, "a tick count"))
      return;
    if (B < A) {
      error(LineNo, Toks[3].Col, "latency range is empty (hi < lo)");
      return;
    }
    L.K = LatencySpec::Kind::Uniform;
    L.A = A;
    L.B = B;
  } else if (Kind.Text == "spiky") {
    if (Toks.size() != 5) {
      error(LineNo, Kind.Col,
            "'latency spiky' takes three values: BASE P FACTOR "
            "(P = spike probability in percent)");
      return;
    }
    if (!parseU64(Toks[2], LineNo, A, "a tick count") ||
        !parseU64(Toks[3], LineNo, P, "a percentage") ||
        !parseU64(Toks[4], LineNo, B, "a factor"))
      return;
    if (P > 100) {
      error(LineNo, Toks[3].Col, "spike probability must be <= 100 percent");
      return;
    }
    L.K = LatencySpec::Kind::Spiky;
    L.A = A;
    L.SpikePercent = static_cast<uint32_t>(P);
    L.B = B;
  } else {
    error(LineNo, Kind.Col,
          "unknown latency model '" + Kind.Text +
              "' (want fixed | uniform | spiky)");
    return;
  }
  Result.S.Latency = L;
}

void SpecParser::parseSweep(const std::vector<Token> &Toks, unsigned LineNo) {
  if (Toks.size() < 3) {
    error(LineNo, Toks[0].Col, "'sweep' needs a key and at least one value");
    return;
  }
  SweepAxis Axis;
  Axis.Key = Toks[1].Text;
  for (const SweepAxis &Existing : Result.S.Sweeps)
    if (Existing.Key == Axis.Key) {
      error(LineNo, Toks[1].Col,
            "duplicate sweep axis '" + Axis.Key + "'");
      return;
    }
  // Validate every value by applying it to a scratch spec, so bad values
  // are caught at their exact position rather than mid-campaign.
  for (size_t I = 2; I < Toks.size(); ++I) {
    Spec Scratch;
    std::string Err;
    if (!applyOverride(Scratch, Axis.Key, Toks[I].Text, Err)) {
      error(LineNo, Toks[I].Col, Err);
      return;
    }
    if (Axis.Key == "topology") {
      if (!checkTopologyShape(Toks[I], LineNo))
        return;
    }
    Axis.Values.push_back(Toks[I].Text);
  }
  Result.S.Sweeps.push_back(std::move(Axis));
}

void SpecParser::parseCrash(const std::vector<Token> &Toks, unsigned LineNo) {
  if (Toks.size() < 2) {
    error(LineNo, Toks[0].Col,
          "'crash' needs a kind: patch | nodes | ball | wave | grow | "
          "random | chain");
    return;
  }
  CrashDirective C;
  const Token &Kind = Toks[1];
  size_t NumArgs;
  if (Kind.Text == "patch") {
    C.K = CrashDirective::Kind::Patch;
    NumArgs = 3;
  } else if (Kind.Text == "nodes") {
    C.K = CrashDirective::Kind::Nodes;
    NumArgs = 1; // One comma-joined token.
  } else if (Kind.Text == "ball") {
    C.K = CrashDirective::Kind::Ball;
    NumArgs = 2;
  } else if (Kind.Text == "wave") {
    C.K = CrashDirective::Kind::Wave;
    NumArgs = 2;
  } else if (Kind.Text == "grow") {
    C.K = CrashDirective::Kind::Grow;
    NumArgs = 2;
  } else if (Kind.Text == "random") {
    C.K = CrashDirective::Kind::Random;
    NumArgs = 2;
  } else if (Kind.Text == "chain") {
    C.K = CrashDirective::Kind::Chain;
    NumArgs = 2;
  } else {
    error(LineNo, Kind.Col,
          "unknown crash kind '" + Kind.Text +
              "' (want patch | nodes | ball | wave | grow | random | chain)");
    return;
  }

  size_t I = 2;
  if (C.K == CrashDirective::Kind::Nodes) {
    if (I >= Toks.size() || Toks[I].Text == "at") {
      error(LineNo, Kind.Col, "crash nodes needs a comma-joined id list");
      return;
    }
    // Split ID,ID,... keeping per-id columns for precise diagnostics.
    const Token &ListTok = Toks[I];
    size_t Pos = 0;
    while (Pos <= ListTok.Text.size()) {
      size_t Comma = ListTok.Text.find(',', Pos);
      size_t Len =
          Comma == std::string::npos ? std::string::npos : Comma - Pos;
      Token IdTok{ListTok.Text.substr(Pos, Len),
                  ListTok.Col + static_cast<unsigned>(Pos)};
      uint64_t Id;
      if (!parseU64(IdTok, LineNo, Id, "a node id"))
        return;
      C.Args.push_back(Id);
      if (Comma == std::string::npos)
        break;
      Pos = Comma + 1;
    }
    ++I;
  } else {
    for (size_t N = 0; N < NumArgs; ++N, ++I) {
      if (I >= Toks.size() || Toks[I].Text == "at") {
        error(LineNo,
              I < Toks.size() ? Toks[I].Col
                              : Toks.back().Col +
                                    static_cast<unsigned>(
                                        Toks.back().Text.size()),
              formatStr("crash %s takes %zu numeric arguments",
                        Kind.Text.c_str(), NumArgs));
        return;
      }
      uint64_t V;
      if (!parseU64(Toks[I], LineNo, V, "a numeric argument"))
        return;
      C.Args.push_back(V);
    }
  }

  if (I >= Toks.size() || Toks[I].Text != "at") {
    error(LineNo,
          I < Toks.size()
              ? Toks[I].Col
              : Toks.back().Col + static_cast<unsigned>(Toks.back().Text.size()),
          "crash directive needs 'at T'");
    return;
  }
  ++I;
  if (I >= Toks.size() ||
      !parseU64(Toks[I], LineNo, C.At, "a crash time")) {
    if (I >= Toks.size())
      error(LineNo,
            Toks.back().Col + static_cast<unsigned>(Toks.back().Text.size()),
            "'at' needs a time");
    return;
  }
  ++I;
  while (I < Toks.size()) {
    const Token &Key = Toks[I];
    if (Key.Text != "gap" && Key.Text != "spread") {
      error(LineNo, Key.Col,
            "unexpected token '" + Key.Text + "' (want gap or spread)");
      return;
    }
    if (I + 1 >= Toks.size()) {
      error(LineNo, Key.Col, "'" + Key.Text + "' needs a value");
      return;
    }
    uint64_t V;
    if (!parseU64(Toks[I + 1], LineNo, V, "a tick count"))
      return;
    if (Key.Text == "gap")
      C.Gap = V;
    else {
      if (C.K != CrashDirective::Kind::Random) {
        error(LineNo, Key.Col, "'spread' only applies to crash random");
        return;
      }
      C.Spread = V;
    }
    I += 2;
  }
  Result.S.Epochs.back().push_back(std::move(C));
}

void SpecParser::parsePerturb(const std::vector<Token> &Toks,
                              unsigned LineNo) {
  Spec &S = Result.S;
  if (Toks.size() < 2) {
    error(LineNo, Toks[0].Col,
          "'perturb' needs a kind: tie-bias | link-salt | link | "
          "crash-shift | crash-drop");
    return;
  }
  const Token &Kind = Toks[1];
  // One-per-file kinds reuse the scalar-directive bookkeeping under a
  // synthetic "perturb <kind>" key (crash-shift/crash-drop repeat).
  auto OnceKind = [&]() {
    return once(Token{"perturb " + Kind.Text, Kind.Col}, LineNo);
  };

  if (Kind.Text == "tie-bias" || Kind.Text == "link-salt") {
    if (!OnceKind())
      return;
    if (Toks.size() != 3) {
      error(LineNo, Kind.Col,
            "'perturb " + Kind.Text + "' takes one value: a 64-bit seed");
      return;
    }
    uint64_t V;
    if (!parseU64(Toks[2], LineNo, V, "a 64-bit seed"))
      return;
    if (V == 0) {
      error(LineNo, Toks[2].Col,
            "'perturb " + Kind.Text +
                "' must be non-zero (omit the directive for the null "
                "perturbation)");
      return;
    }
    (Kind.Text == "tie-bias" ? S.Perturb.TieBias : S.Perturb.LinkSalt) = V;
  } else if (Kind.Text == "link") {
    if (!OnceKind())
      return;
    if (Toks.size() != 3) {
      error(LineNo, Kind.Col,
            "'perturb link' takes one compact link spec "
            "(none | reliable | drop:P,dup:P,...)");
      return;
    }
    net::LinkSpec L;
    std::string Err;
    if (!net::parseLinkCompact(Toks[2].Text, L, Err)) {
      error(LineNo, Toks[2].Col, Err);
      return;
    }
    S.Perturb.HasLink = true;
    S.Perturb.Link = L;
  } else if (Kind.Text == "crash-drop") {
    if (Toks.size() != 3) {
      error(LineNo, Kind.Col, "'perturb crash-drop' takes one crash index");
      return;
    }
    uint64_t V;
    if (!parseU64(Toks[2], LineNo, V, "a crash index"))
      return;
    if (V > 0xffffffffULL) {
      error(LineNo, Toks[2].Col, "crash index out of range");
      return;
    }
    uint32_t Idx = static_cast<uint32_t>(V);
    auto It =
        std::lower_bound(S.Perturb.Drops.begin(), S.Perturb.Drops.end(), Idx);
    if (It != S.Perturb.Drops.end() && *It == Idx) {
      error(LineNo, Toks[2].Col,
            formatStr("duplicate crash-drop index %u", Idx));
      return;
    }
    S.Perturb.Drops.insert(It, Idx);
  } else if (Kind.Text == "crash-shift") {
    if (Toks.size() != 4) {
      error(LineNo, Kind.Col,
            "'perturb crash-shift' takes a crash index and a signed delta");
      return;
    }
    uint64_t V;
    int64_t Delta;
    if (!parseU64(Toks[2], LineNo, V, "a crash index") ||
        !parseI64(Toks[3], LineNo, Delta, "a signed tick delta"))
      return;
    if (V > 0xffffffffULL) {
      error(LineNo, Toks[2].Col, "crash index out of range");
      return;
    }
    if (Delta == 0) {
      error(LineNo, Toks[3].Col,
            "crash-shift delta must be non-zero (omit the directive for "
            "no shift)");
      return;
    }
    CrashShift Sh;
    Sh.Index = static_cast<uint32_t>(V);
    Sh.Delta = Delta;
    auto It = std::lower_bound(S.Perturb.Shifts.begin(),
                               S.Perturb.Shifts.end(), Sh.Index,
                               [](const CrashShift &A, uint32_t I) {
                                 return A.Index < I;
                               });
    if (It != S.Perturb.Shifts.end() && It->Index == Sh.Index) {
      error(LineNo, Toks[2].Col,
            formatStr("duplicate crash-shift index %u", Sh.Index));
      return;
    }
    S.Perturb.Shifts.insert(It, Sh);
  } else {
    error(LineNo, Kind.Col,
          "unknown perturb kind '" + Kind.Text +
              "' (want tie-bias | link-salt | link | crash-shift | "
              "crash-drop)");
  }
}

void SpecParser::finish() {
  Spec &S = Result.S;
  // The process transport runs exactly one epoch of scripted crashes as a
  // schedule of real SIGKILLs; service mode and multi-epoch worlds have
  // no process analogue (a killed daemon never comes back).
  if (S.Transport == TransportKind::Proc &&
      (S.ServiceEpochs > 0 || S.ChurnRate > 0 || S.Epochs.size() > 1))
    error(TransportLine ? TransportLine : 1, 1,
          "'transport proc' requires a single-epoch, non-service scenario");
  // Service mode generates its crash plans: churn parameters are
  // mandatory, scripted crashes and explicit epochs are contradictory,
  // and crash perturbations have no stable plan to index.
  if (S.ServiceEpochs > 0 || S.ChurnRate > 0) {
    if (S.ServiceEpochs == 0 || S.ChurnRate == 0) {
      error(1, 1, "'service' and 'churn' must appear together");
      return;
    }
    if (S.Epochs.size() > 1 || !S.Epochs[0].empty()) {
      error(EpochStartLines[0], 1,
            "a service scenario generates its churn; crash/epoch "
            "directives are not allowed");
      return;
    }
    if (!S.Perturb.Drops.empty() || !S.Perturb.Shifts.empty()) {
      error(1, 1,
            "perturb crash-shift/crash-drop require a scripted "
            "single-epoch scenario, not a service run");
      return;
    }
    return;
  }
  for (size_t E = 0; E < S.Epochs.size(); ++E)
    if (S.Epochs[E].empty())
      error(EpochStartLines[E], 1,
            formatStr("epoch %zu has no crash directives", E + 1));
  // Crash-plan perturbations index the single materialized plan; a
  // multi-epoch spec has one plan per epoch and no way to name them.
  if (S.Epochs.size() > 1 &&
      (!S.Perturb.Drops.empty() || !S.Perturb.Shifts.empty()))
    error(EpochStartLines[1], 1,
          "perturb crash-shift/crash-drop require a single-epoch scenario");
}

} // namespace

ParseResult scenario::parseSpec(const std::string &Text) {
  return SpecParser().run(Text);
}
