//===- tests/WireTest.cpp - Wire format round-trip and fuzz tests -------------===//
//
// Part of the cliffedge project: a reproduction of "Cliff-Edge Consensus:
// Agreeing on the Precipice" (Taiani, Porter, Coulson, Raynal, PaCT 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Wire-format tests: v3 round-trips (self-contained announce frames and
/// the announce -> id-only sequencing of WireEncoder), a frozen v3 corpus
/// pinned in both directions, encoder streams checked field by field
/// against the self-contained layout, rejection of the retired v1/v2
/// layouts and of malformed input, and fuzz probes of the decoder.
///
//===----------------------------------------------------------------------===//

#include "core/Wire.h"

#include "net/Channel.h"
#include "support/Random.h"

#include "gtest/gtest.h"

using namespace cliffedge;
using core::Message;
using core::Opinion;
using core::OpinionEntry;
using core::OpinionVec;
using graph::Region;

namespace {

/// Encode- and decode-side state for one test: messages intern into Enc;
/// decoding replays announces into the fresh Dec, proving frames are
/// self-contained (no shared intern table needed across the "wire").
struct WireTables {
  graph::Graph G{1}; // Interning with explicit borders never consults it.
  core::ViewTable Enc{G};
  core::ViewTable Dec{G};
};

Message sampleMessage(core::ViewTable &Views) {
  Message M;
  M.Round = 3;
  M.setView(Views.intern(Region{4, 5, 6}, Region{1, 3, 7, 9}));
  M.Opinions = OpinionVec(4);
  M.Opinions[0] = OpinionEntry{Opinion::Accept, 42};
  M.Opinions[1] = OpinionEntry{Opinion::None, 0};
  M.Opinions[2] = OpinionEntry{Opinion::Reject, 0};
  M.Opinions[3] = OpinionEntry{Opinion::Accept, 0xdeadbeefcafeULL};
  return M;
}

} // namespace

TEST(WireTest, RoundTripPreservesEverything) {
  WireTables T;
  Message M = sampleMessage(T.Enc);
  auto Decoded = core::decodeMessage(core::encodeMessage(M), T.Dec);
  ASSERT_TRUE(Decoded.has_value());
  EXPECT_EQ(Decoded->Round, M.Round);
  EXPECT_EQ(Decoded->view(), M.view());
  EXPECT_EQ(Decoded->border(), M.border());
  EXPECT_EQ(Decoded->Opinions, M.Opinions);
  EXPECT_EQ(Decoded->Final, false);
  EXPECT_EQ(Decoded->Id, M.Id);
}

TEST(WireTest, RoundTripFinalFlag) {
  WireTables T;
  Message M = sampleMessage(T.Enc);
  M.Final = true;
  auto Decoded = core::decodeMessage(core::encodeMessage(M), T.Dec);
  ASSERT_TRUE(Decoded.has_value());
  EXPECT_TRUE(Decoded->Final);
}

TEST(WireTest, RoundTripSingletonView) {
  WireTables T;
  Message M;
  M.Round = 1;
  M.setView(T.Enc.intern(Region{0}, Region{1}));
  M.Opinions = OpinionVec(1);
  M.Opinions[0] = OpinionEntry{Opinion::Accept, 1};
  auto Decoded = core::decodeMessage(core::encodeMessage(M), T.Dec);
  ASSERT_TRUE(Decoded.has_value());
  EXPECT_EQ(Decoded->view(), M.view());
}

TEST(WireTest, RejectsEmptyBuffer) {
  WireTables T;
  EXPECT_FALSE(core::decodeMessage({}, T.Dec).has_value());
}

TEST(WireTest, RejectsBadMagic) {
  WireTables T;
  auto Bytes = core::encodeMessage(sampleMessage(T.Enc));
  Bytes[0] ^= 0xff;
  EXPECT_FALSE(core::decodeMessage(Bytes, T.Dec).has_value());
}

TEST(WireTest, RejectsBadVersion) {
  WireTables T;
  auto Bytes = core::encodeMessage(sampleMessage(T.Enc));
  Bytes[4] = 99;
  EXPECT_FALSE(core::decodeMessage(Bytes, T.Dec).has_value());
}

TEST(WireTest, RejectsTruncation) {
  WireTables T;
  auto Bytes = core::encodeMessage(sampleMessage(T.Enc));
  for (size_t Cut = 0; Cut < Bytes.size(); ++Cut) {
    std::vector<uint8_t> Truncated(Bytes.begin(), Bytes.begin() + Cut);
    core::ViewTable Dec(T.G);
    EXPECT_FALSE(core::decodeMessage(Truncated, Dec).has_value())
        << "truncation at " << Cut << " accepted";
  }
}

TEST(WireTest, UndecodableOwnFrameAbortsWithSenderAndSize) {
  // An engine's own frame failing to decode is a codec bug: the shared
  // guard both engines decode through reports the sender and the frame
  // size and aborts, in every build type, instead of dropping the leg.
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  WireTables T;
  Message M = sampleMessage(T.Enc);
  auto Bytes = core::encodeMessage(M);
  Message Out;
  core::decodeOwnFrame(17, Bytes, T.Enc, Out);
  EXPECT_EQ(Out.view(), M.view());
  Bytes.resize(Bytes.size() - 3);
  EXPECT_DEATH(core::decodeOwnFrame(17, Bytes, T.Enc, Out),
               "a " + std::to_string(Bytes.size()) +
                   "-byte frame sent by node 17 failed to decode");
}

TEST(WireTest, RejectsTrailingGarbage) {
  WireTables T;
  auto Bytes = core::encodeMessage(sampleMessage(T.Enc));
  Bytes.push_back(0);
  EXPECT_FALSE(core::decodeMessage(Bytes, T.Dec).has_value());
}

TEST(WireTest, RejectsZeroRound) {
  WireTables T;
  Message M = sampleMessage(T.Enc);
  M.Round = 0;
  // Encoder writes it; decoder must refuse.
  EXPECT_FALSE(
      core::decodeMessage(core::encodeMessage(M), T.Dec).has_value());
}

TEST(WireTest, FuzzRandomBuffersNeverCrash) {
  Rng Rand(2024);
  graph::Graph G(1);
  for (int Trial = 0; Trial < 2000; ++Trial) {
    size_t Len = Rand.nextBelow(64);
    std::vector<uint8_t> Bytes(Len);
    for (auto &B : Bytes)
      B = static_cast<uint8_t>(Rand.next());
    core::ViewTable Dec(G);
    (void)core::decodeMessage(Bytes, Dec); // Must not crash or assert.
  }
}

TEST(WireTest, FuzzBitflipsEitherFailOrStaySane) {
  Rng Rand(7);
  WireTables T;
  auto Bytes = core::encodeMessage(sampleMessage(T.Enc));
  for (int Trial = 0; Trial < 500; ++Trial) {
    auto Copy = Bytes;
    size_t Pos = Rand.nextBelow(Copy.size());
    Copy[Pos] ^= static_cast<uint8_t>(1u << Rand.nextBelow(8));
    core::ViewTable Dec(T.G);
    auto Decoded = core::decodeMessage(Copy, Dec);
    if (!Decoded)
      continue;
    // If the flip survived decoding, invariants must still hold.
    EXPECT_EQ(Decoded->Opinions.size(), Decoded->border().size());
    EXPECT_GE(Decoded->Round, 1u);
  }
}

TEST(WireTest, EncodingIsDeterministic) {
  WireTables T;
  Message M = sampleMessage(T.Enc);
  EXPECT_EQ(core::encodeMessage(M), core::encodeMessage(M));
}

// -- Wire v3: announce / id-only frame sequencing ----------------------------

TEST(WireTest, EncodesCurrentVersion3) {
  WireTables T;
  auto Bytes = core::encodeMessage(sampleMessage(T.Enc));
  ASSERT_GT(Bytes.size(), 5u);
  EXPECT_EQ(Bytes[4], 3) << "encoder must stamp wire version 3";
}

TEST(WireTest, EncoderAnnouncesOncePerViewThenSendsIdOnly) {
  WireTables T;
  Message M = sampleMessage(T.Enc);
  core::WireEncoder Enc;
  std::vector<uint8_t> First, Second;
  Enc.encode(M, First);
  M.Round = 4;
  Enc.encode(M, Second);
  // The id-only frame drops both region payloads.
  EXPECT_LT(Second.size(), First.size());
  EXPECT_EQ(First[5] & 2, 2) << "first frame must carry the announce";
  EXPECT_EQ(Second[5] & 2, 0) << "second frame must be id-only";

  // In order, a fresh decoder follows the stream: the announce registers
  // the id, the id-only frame resolves against it.
  auto D1 = core::decodeMessage(First, T.Dec);
  ASSERT_TRUE(D1.has_value());
  auto D2 = core::decodeMessage(Second, T.Dec);
  ASSERT_TRUE(D2.has_value());
  EXPECT_EQ(D2->view(), M.view());
  EXPECT_EQ(D2->border(), M.border());
  EXPECT_EQ(D2->Round, 4u);

  // Out of order (id-only first), a fresh decoder must refuse: the id is
  // unknown. FIFO channels make this unreachable in a real run.
  core::ViewTable Fresh(T.G);
  EXPECT_FALSE(core::decodeMessage(Second, Fresh).has_value());
}

TEST(WireTest, IdOnlyFrameResolvesAgainstRunSharedTable) {
  // In-process both sides share the run's table: id-only frames decode
  // even when this particular channel never saw an announce.
  WireTables T;
  Message M = sampleMessage(T.Enc);
  std::vector<uint8_t> IdOnly;
  core::encodeMessageV3Into(M, /*WithAnnounce=*/false, IdOnly);
  auto Decoded = core::decodeMessage(IdOnly, T.Enc);
  ASSERT_TRUE(Decoded.has_value());
  EXPECT_EQ(Decoded->view(), M.view());
}

TEST(WireTest, ConflictingAnnounceRejected) {
  WireTables T;
  Message M = sampleMessage(T.Enc);
  auto Announce = core::encodeMessage(M);
  ASSERT_TRUE(core::decodeMessage(Announce, T.Dec).has_value());
  // Same id, different view: a second encoder table whose id 0 is a
  // different region produces a conflicting announce.
  core::ViewTable Enc2(T.G);
  Message M2;
  M2.Round = 1;
  M2.setView(Enc2.intern(Region{8}, Region{7, 9}));
  M2.Opinions = OpinionVec(2);
  auto Conflict = core::encodeMessage(M2);
  EXPECT_FALSE(core::decodeMessage(Conflict, T.Dec).has_value());
}

TEST(WireTest, IdOnlyFrameShedsBothRegionsOn64NodeBorder) {
  WireTables T;
  Message M;
  std::vector<NodeId> View, Border;
  for (NodeId I = 0; I < 64; ++I) {
    View.push_back(1000 + 2 * I);
    Border.push_back(1001 + 2 * I);
  }
  M.Round = 7;
  M.setView(T.Enc.intern(Region(std::move(View)), Region(std::move(Border))));
  M.Opinions = OpinionVec(64);
  for (size_t I = 0; I < 64; ++I)
    M.Opinions[I] = OpinionEntry{Opinion::Accept, I};

  std::vector<uint8_t> Announce = core::encodeMessage(M);
  std::vector<uint8_t> IdOnly;
  core::encodeMessageV3Into(M, /*WithAnnounce=*/false, IdOnly);
  // Dropping the region payloads sheds the two 64-node regions entirely
  // (>= 1 byte per delta-coded id), leaving only the 8-byte
  // header+id+round and the opinion vector, which any layout must carry.
  EXPECT_LE(IdOnly.size(), Announce.size() - 128)
      << "id-only=" << IdOnly.size() << " bytes, announce="
      << Announce.size() << " bytes";

  // On the small-border shape (the common case: a handful of accepts),
  // the id-only frame is "~a dozen bytes instead of hundreds".
  WireTables T2;
  Message Small;
  Small.Round = 9;
  Small.setView(T2.Enc.intern(Region{10, 11}, Region{5, 12}));
  Small.Opinions = OpinionVec(2);
  Small.Opinions[0] = OpinionEntry{Opinion::Accept, 1};
  Small.Opinions[1] = OpinionEntry{Opinion::Accept, 2};
  std::vector<uint8_t> SmallIdOnly;
  core::encodeMessageV3Into(Small, /*WithAnnounce=*/false, SmallIdOnly);
  EXPECT_LE(SmallIdOnly.size(), 16u);

  auto Decoded = core::decodeMessage(IdOnly, T.Enc);
  ASSERT_TRUE(Decoded.has_value());
  EXPECT_EQ(Decoded->view(), M.view());
  EXPECT_EQ(Decoded->border(), M.border());
  EXPECT_EQ(Decoded->Opinions, M.Opinions);
}

TEST(WireTest, RoundTripLargeValuesAndSparseIds) {
  WireTables T;
  Message M;
  M.Round = 0x0fffffff;
  M.setView(T.Enc.intern(Region{0, 1000000, 4294967293u},
                         Region{7, 4294967294u}));
  M.Opinions = OpinionVec(2);
  M.Opinions[0] = OpinionEntry{Opinion::Accept, ~0ULL};
  M.Opinions[1] = OpinionEntry{Opinion::Reject, 0};
  auto Decoded = core::decodeMessage(core::encodeMessage(M), T.Dec);
  ASSERT_TRUE(Decoded.has_value());
  EXPECT_EQ(Decoded->Round, M.Round);
  EXPECT_EQ(Decoded->view(), M.view());
  EXPECT_EQ(Decoded->border(), M.border());
  EXPECT_EQ(Decoded->Opinions, M.Opinions);
}

// -- Hand-built frames -------------------------------------------------------

namespace {

/// A v3 announce frame for view id 0, round 1, view {100, 100 + Delta},
/// border {7} with a Reject opinion, the delta written as a raw varint.
std::vector<uint8_t> announceWithSecondDelta(uint64_t Delta) {
  std::vector<uint8_t> Bytes = {0x43, 0x4C, 0x45, 0x43, 3,
                                core::kWireFlagAnnounce};
  Bytes.push_back(0); // view id 0
  Bytes.push_back(1); // round 1
  Bytes.push_back(2); // |V| = 2
  Bytes.push_back(100);
  core::wireAppendVarint(Bytes, Delta);
  Bytes.push_back(1); // |B| = 1
  Bytes.push_back(7);
  Bytes.push_back(2); // opinion kind Reject (no value follows)
  return Bytes;
}

} // namespace

TEST(WireTest, RejectsWrappingDeltaInAnnounceRegion) {
  // Id 100 followed by delta 2^64-50 would compute "id" 50 < 100. The
  // decoder must reject it rather than silently re-sort; the same frame
  // with an honest delta decodes, so the delta is what it refuses.
  WireTables T;
  auto Honest = core::decodeMessage(announceWithSecondDelta(5), T.Dec);
  ASSERT_TRUE(Honest.has_value());
  EXPECT_EQ(Honest->view(), (Region{100, 105}));
  core::ViewTable Fresh(T.G);
  EXPECT_FALSE(
      core::decodeMessage(announceWithSecondDelta(~uint64_t(49)), Fresh)
          .has_value());
}

TEST(WireTest, FuzzV3RandomBuffersNeverCrash) {
  Rng Rand(8192);
  graph::Graph G(1);
  for (int Trial = 0; Trial < 2000; ++Trial) {
    size_t Len = 6 + Rand.nextBelow(64);
    std::vector<uint8_t> Bytes(Len);
    for (auto &B : Bytes)
      B = static_cast<uint8_t>(Rand.next());
    Bytes[0] = 0x43;
    Bytes[1] = 0x4C;
    Bytes[2] = 0x45;
    Bytes[3] = 0x43;
    Bytes[4] = 3;
    Bytes[5] = static_cast<uint8_t>(Rand.nextBelow(4));
    core::ViewTable Dec(G);
    (void)core::decodeMessage(Bytes, Dec); // Must not crash or assert.
  }
}

// -- Frozen v3 corpus --------------------------------------------------------
//
// Hex frames of the live layout, one per frame kind, as one sender's
// stream in order: a self-contained announce, an id-only round frame of
// the same view, an announce carrying the Final flag, a channel-extension
// frame (seq 300, cumulative ack 5) wrapping an id-only frame of that
// second view, and a pure ack (cumulative ack 200). Both directions are
// pinned: the encoders reproduce the bytes exactly, and a fresh decoder
// following the stream returns the same fields.

namespace {

std::vector<uint8_t> fromHex(const char *Hex) {
  std::vector<uint8_t> Out;
  for (size_t I = 0; Hex[I] && Hex[I + 1]; I += 2) {
    auto Nib = [](char C) -> uint8_t {
      return C <= '9' ? C - '0' : C - 'a' + 10;
    };
    Out.push_back(static_cast<uint8_t>((Nib(Hex[I]) << 4) | Nib(Hex[I + 1])));
  }
  return Out;
}

/// The corpus's two views' messages, interned into \p Views as ids 0
/// and 1.
std::vector<Message> corpusMessages(core::ViewTable &Views) {
  std::vector<Message> Out;
  {
    Message M;
    M.Round = 3;
    M.setView(Views.intern(Region{4, 5, 6}, Region{1, 3, 7, 9}));
    M.Opinions = OpinionVec(4);
    M.Opinions[0] = OpinionEntry{Opinion::Accept, 41};
    M.Opinions[2] = OpinionEntry{Opinion::Reject, 0};
    M.Opinions[3] = OpinionEntry{Opinion::Accept, 1234567890123ULL};
    Out.push_back(std::move(M));
  }
  {
    Message M;
    M.Round = 300;
    M.setView(Views.intern(Region{0, 1000000, 4294967293u},
                           Region{7, 4294967294u}));
    M.Opinions = OpinionVec(2);
    M.Opinions[1] = OpinionEntry{Opinion::Accept, ~0ULL};
    M.Final = true;
    Out.push_back(std::move(M));
  }
  return Out;
}

/// One corpus frame: its kind and its bytes in hex.
struct CorpusFrame {
  const char *Kind;
  const char *Hex;
};

const CorpusFrame CorpusV3[] = {
    {"announce", "434c4543030200030304010104010204020129000201cb89ec8ff723"},
    {"id-only", "434c4543030000040129000201cb89ec8ff723"},
    {"final", "434c4543030301ac020300c0843dbdfbc2ff0f0207f7ffffff0f0001ffff"
              "ffffffffffffff01"},
    {"channel", "434c45430304ac020501ad020001ffffffffffffffffff01"},
    {"pure-ack", "434c4543030c00c801"},
};

/// The message each protocol frame of CorpusV3 carries, in order.
std::vector<Message> corpusStream(core::ViewTable &Views) {
  std::vector<Message> Msgs = corpusMessages(Views);
  Message IdOnly = Msgs[0];
  IdOnly.Round = 4;
  Message Channel = Msgs[1];
  Channel.Round = 301;
  Channel.Final = false;
  return {Msgs[0], IdOnly, Msgs[1], Channel};
}

/// Frames of the retired layouts, captured when their encoders were
/// current: the v1 (fixed-width) and v2 (full-region varint) forms of
/// three messages.
const char *CorpusV1[] = {
    "434c4543010003000000030000000400000005000000060000000400000001000000"
    "030000000700000009000000012900000000000000000201cb04fb711f010000",
    "434c454301012c010000030000000000000040420f00fdffffff0200000007000000"
    "feffffff0001ffffffffffffffff",
    "434c45430100010000000100000000000000010000000100000000",
};

const char *CorpusV2[] = {
    "434c45430200030304010104010204020129000201cb89ec8ff723",
    "434c45430201ac020300c0843dbdfbc2ff0f0207f7ffffff0f0001ffffffffffffff"
    "ffff01",
    "434c45430200010100010100",
};

/// Neither decode path accepts \p Bytes, and neither interns anything.
void expectRejected(const std::vector<uint8_t> &Bytes,
                    const std::string &Where) {
  graph::Graph G(1);
  core::ViewTable Views(G);
  EXPECT_FALSE(core::decodeMessage(Bytes, Views).has_value()) << Where;
  Message Out;
  EXPECT_FALSE(core::decodeMessageSelfContained(Bytes, Views, Out)) << Where;
  EXPECT_EQ(Views.size(), 0u) << Where;
}

} // namespace

TEST(WireTest, CapturedCorpusEncodesByteForByte) {
  WireTables T;
  std::vector<Message> Stream = corpusStream(T.Enc);
  // The announce and Final frames are self-contained (encodeMessage, the
  // proc runtime's layout); a WireEncoder produces the same announce and
  // then the id-only frame, as every simulated transport does.
  core::WireEncoder Enc;
  std::vector<uint8_t> Frame;
  Enc.encode(Stream[0], Frame);
  EXPECT_EQ(Frame, fromHex(CorpusV3[0].Hex)) << CorpusV3[0].Kind;
  EXPECT_EQ(core::encodeMessage(Stream[0]), fromHex(CorpusV3[0].Hex));
  Enc.encode(Stream[1], Frame);
  EXPECT_EQ(Frame, fromHex(CorpusV3[1].Hex)) << CorpusV3[1].Kind;
  EXPECT_EQ(core::encodeMessage(Stream[2]), fromHex(CorpusV3[2].Hex))
      << CorpusV3[2].Kind;
  std::vector<uint8_t> IdOnly, Wrapped;
  core::encodeMessageV3Into(Stream[3], /*WithAnnounce=*/false, IdOnly);
  net::wrapChannelFrame(IdOnly, 300, 5, Wrapped);
  EXPECT_EQ(Wrapped, fromHex(CorpusV3[3].Hex)) << CorpusV3[3].Kind;
  EXPECT_EQ(net::wrappedFrameSize(IdOnly.size(), 300, 5), Wrapped.size());
  std::vector<uint8_t> Ack;
  net::buildPureAck(200, Ack);
  EXPECT_EQ(Ack, fromHex(CorpusV3[4].Hex)) << CorpusV3[4].Kind;
  EXPECT_EQ(net::pureAckSize(200), Ack.size());
}

TEST(WireTest, CapturedCorpusDecodesUnchanged) {
  WireTables T;
  std::vector<Message> Stream = corpusStream(T.Enc);
  // A fresh decoder follows the stream: each announce registers its id
  // before the id-only frames that use it.
  for (size_t I = 0; I < Stream.size(); ++I) {
    std::vector<uint8_t> Bytes = fromHex(CorpusV3[I].Hex);
    auto Decoded = core::decodeMessage(Bytes, T.Dec);
    ASSERT_TRUE(Decoded.has_value()) << CorpusV3[I].Kind;
    EXPECT_EQ(Decoded->Id, Stream[I].Id) << CorpusV3[I].Kind;
    EXPECT_EQ(Decoded->Round, Stream[I].Round) << CorpusV3[I].Kind;
    EXPECT_EQ(Decoded->view(), Stream[I].view()) << CorpusV3[I].Kind;
    EXPECT_EQ(Decoded->border(), Stream[I].border()) << CorpusV3[I].Kind;
    EXPECT_EQ(Decoded->Opinions, Stream[I].Opinions) << CorpusV3[I].Kind;
    EXPECT_EQ(Decoded->Final, Stream[I].Final) << CorpusV3[I].Kind;
  }
  // The channel header of the wrapped frame and of the pure ack.
  net::ChannelHeader H;
  ASSERT_TRUE(net::parseChannelHeader(fromHex(CorpusV3[3].Hex), H));
  EXPECT_EQ(H.Seq, 300u);
  EXPECT_EQ(H.Ack, 5u);
  EXPECT_FALSE(H.PureAck);
  ASSERT_TRUE(net::parseChannelHeader(fromHex(CorpusV3[4].Hex), H));
  EXPECT_EQ(H.Seq, 0u);
  EXPECT_EQ(H.Ack, 200u);
  EXPECT_TRUE(H.PureAck);
  // A pure ack is transport-level: never a protocol message.
  EXPECT_FALSE(
      core::decodeMessage(fromHex(CorpusV3[4].Hex), T.Dec).has_value());
  // The self-contained frames also decode by content into a table whose
  // id space is unrelated (the proc runtime's path).
  core::ViewTable Other(T.G);
  Other.intern(Region{99}, Region{98, 100}); // Shift Other's ids.
  for (size_t I : {0u, 2u}) {
    Message Out;
    ASSERT_TRUE(core::decodeMessageSelfContained(fromHex(CorpusV3[I].Hex),
                                                 Other, Out))
        << CorpusV3[I].Kind;
    EXPECT_EQ(Out.view(), Stream[I].view());
    EXPECT_EQ(Out.border(), Stream[I].border());
    EXPECT_EQ(Out.Opinions, Stream[I].Opinions);
    EXPECT_EQ(Out.Final, Stream[I].Final);
  }
}

// -- Retired v1 / v2 layouts -------------------------------------------------

TEST(WireTest, LegacyV1FramesRejected) {
  for (size_t I = 0; I < std::size(CorpusV1); ++I)
    expectRejected(fromHex(CorpusV1[I]), "v1 frame " + std::to_string(I));
}

TEST(WireTest, LegacyV2FramesRejected) {
  for (size_t I = 0; I < std::size(CorpusV2); ++I)
    expectRejected(fromHex(CorpusV2[I]), "v2 frame " + std::to_string(I));
}

TEST(WireTest, LegacyV1TruncationStillRejected) {
  std::vector<uint8_t> Bytes = fromHex(CorpusV1[0]);
  for (size_t Cut = 0; Cut < Bytes.size(); ++Cut)
    expectRejected(std::vector<uint8_t>(Bytes.begin(), Bytes.begin() + Cut),
                   "v1 truncation at " + std::to_string(Cut));
}

TEST(WireTest, FuzzV1RandomBuffersNeverCrash) {
  Rng Rand(4096);
  // Random buffers stamped with a v1 or v2 header: the retired layouts
  // are malformed input now, rejected without a crash whatever follows.
  for (int Trial = 0; Trial < 2000; ++Trial) {
    size_t Len = 6 + Rand.nextBelow(64);
    std::vector<uint8_t> Bytes(Len);
    for (auto &B : Bytes)
      B = static_cast<uint8_t>(Rand.next());
    Bytes[0] = 0x43;
    Bytes[1] = 0x4C;
    Bytes[2] = 0x45;
    Bytes[3] = 0x43;
    Bytes[4] = static_cast<uint8_t>(1 + Rand.nextBelow(2));
    Bytes[5] = static_cast<uint8_t>(Rand.nextBelow(2));
    expectRejected(Bytes, "trial " + std::to_string(Trial));
  }
}

// -- Encoder streams against the self-contained layout -----------------------

/// Property: what a simulated transport ships (each sender's WireEncoder
/// output, decoded through the one run-shared table) carries exactly the
/// fields of the self-contained frame the proc runtime ships for the same
/// message. Seeded streams from several senders revisit views in random
/// order, so every sender mixes announce and id-only frames, and senders
/// first announce views that others interned long before.
TEST(WireTest, EncoderStreamsDecodeLikeSelfContainedFrames) {
  constexpr size_t Senders = 5, Views = 12, Frames = 400;
  for (uint64_t Seed = 1; Seed <= 20; ++Seed) {
    Rng Rand(Seed);
    graph::Graph G(1);
    core::ViewTable Run(G);   // Run-shared: encode side and decode side.
    core::ViewTable Proc(G);  // A daemon's own table: content interning.
    std::vector<Message> Pool;
    for (size_t V = 0; V < Views; ++V) {
      std::vector<NodeId> View, Border;
      NodeId Base = static_cast<NodeId>(Rand.nextBelow(1u << 20));
      for (size_t I = 0, N = 1 + Rand.nextBelow(6); I < N; ++I)
        View.push_back(Base + static_cast<NodeId>(2 * I));
      for (size_t I = 0, N = 1 + Rand.nextBelow(9); I < N; ++I)
        Border.push_back(Base + static_cast<NodeId>(2 * I + 1));
      Message M;
      M.setView(Run.intern(Region(std::move(View)), Region(std::move(Border))));
      Pool.push_back(std::move(M));
    }
    std::vector<core::WireEncoder> Encoders(Senders);
    std::vector<uint8_t> Frame;
    size_t IdOnlyFrames = 0;
    for (size_t F = 0; F < Frames; ++F) {
      Message M = Pool[Rand.nextBelow(Views)];
      M.Round = 1 + static_cast<uint32_t>(Rand.nextBelow(300));
      M.Final = Rand.nextBelow(4) == 0;
      M.Opinions = OpinionVec(M.border().size());
      for (size_t I = 0; I < M.Opinions.size(); ++I) {
        auto Kind = static_cast<Opinion>(Rand.nextBelow(3));
        M.Opinions[I] = OpinionEntry{
            Kind, Kind == Opinion::Accept ? Rand.next() >> Rand.nextBelow(64)
                                          : 0};
      }
      Encoders[Rand.nextBelow(Senders)].encode(M, Frame);
      IdOnlyFrames += (Frame[5] & core::kWireFlagAnnounce) ? 0 : 1;

      Message Live, Reference;
      ASSERT_TRUE(core::decodeMessageInto(Frame, Run, Live))
          << "seed " << Seed << " frame " << F;
      ASSERT_TRUE(core::decodeMessageSelfContained(core::encodeMessage(M),
                                                   Proc, Reference))
          << "seed " << Seed << " frame " << F;
      std::string Where = "seed " + std::to_string(Seed) + " frame " +
                          std::to_string(F);
      EXPECT_EQ(Live.Id, M.Id) << Where;
      EXPECT_EQ(Live.Round, Reference.Round) << Where;
      EXPECT_EQ(Live.Final, Reference.Final) << Where;
      EXPECT_EQ(Live.view(), Reference.view()) << Where;
      EXPECT_EQ(Live.border(), Reference.border()) << Where;
      EXPECT_EQ(Live.Opinions, Reference.Opinions) << Where;
      EXPECT_EQ(Reference.Round, M.Round) << Where;
      EXPECT_EQ(Reference.view(), M.view()) << Where;
      if (HasFailure())
        return;
    }
    // Guard against a vacuous pass: most frames must be id-only.
    EXPECT_GT(IdOnlyFrames, Frames / 2) << "seed " << Seed;
  }
}
