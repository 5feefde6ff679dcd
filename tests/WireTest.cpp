//===- tests/WireTest.cpp - Wire format round-trip and fuzz tests -------------===//
//
// Part of the cliffedge project: a reproduction of "Cliff-Edge Consensus:
// Agreeing on the Precipice" (Taiani, Porter, Coulson, Raynal, PaCT 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Wire-format tests: v3 round-trips (self-contained announce frames and
/// the announce -> id-only sequencing of WireEncoder), decode of captured
/// v1/v2 corpora (bytes pinned at the moment those encoders were current),
/// malformed-input rejection, and fuzz probes of all three decode paths.
///
//===----------------------------------------------------------------------===//

#include "core/Wire.h"

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

TEST(WireTest, V3IdOnlySmallerThanV2On64NodeBorder) {
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

  auto V1 = core::encodeMessageV1(M);
  auto V2 = core::encodeMessageV2(M);
  std::vector<uint8_t> V3;
  core::encodeMessageV3Into(M, /*WithAnnounce=*/false, V3);
  // Delta-varint ids vs fixed u32 made v2 less than half of v1; dropping
  // the region payloads makes the id-only v3 frame shed the two 64-node
  // regions entirely (≥ 1 byte per delta-coded id), leaving only the
  // 8-byte header+id+round and the opinion vector, which any layout must
  // carry.
  EXPECT_LT(V2.size(), V1.size() / 2)
      << "v2=" << V2.size() << " bytes, v1=" << V1.size() << " bytes";
  EXPECT_LE(V3.size(), V2.size() - 128)
      << "v3=" << V3.size() << " bytes, v2=" << V2.size() << " bytes";

  // On the small-border shape (the common case: a handful of accepts),
  // the id-only frame is an order of magnitude below the region-carrying
  // layouts — "~a dozen bytes instead of hundreds".
  WireTables T2;
  Message Small;
  Small.Round = 9;
  Small.setView(T2.Enc.intern(Region{10, 11}, Region{5, 12}));
  Small.Opinions = OpinionVec(2);
  Small.Opinions[0] = OpinionEntry{Opinion::Accept, 1};
  Small.Opinions[1] = OpinionEntry{Opinion::Accept, 2};
  std::vector<uint8_t> SmallV3;
  core::encodeMessageV3Into(Small, /*WithAnnounce=*/false, SmallV3);
  EXPECT_LE(SmallV3.size(), 16u);

  auto Decoded = core::decodeMessage(V2, T.Dec);
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

// -- Legacy v1 / v2 interop ---------------------------------------------------

TEST(WireTest, LegacyV1FramesStillDecode) {
  WireTables T;
  Message M = sampleMessage(T.Enc);
  auto V1 = core::encodeMessageV1(M);
  ASSERT_GT(V1.size(), 5u);
  ASSERT_EQ(V1[4], 1) << "legacy encoder must stamp wire version 1";
  auto Decoded = core::decodeMessage(V1, T.Dec);
  ASSERT_TRUE(Decoded.has_value());
  EXPECT_EQ(Decoded->Round, M.Round);
  EXPECT_EQ(Decoded->view(), M.view());
  EXPECT_EQ(Decoded->border(), M.border());
  EXPECT_EQ(Decoded->Opinions, M.Opinions);
}

TEST(WireTest, LegacyV2FramesStillDecode) {
  WireTables T;
  Message M = sampleMessage(T.Enc);
  auto V2 = core::encodeMessageV2(M);
  ASSERT_GT(V2.size(), 5u);
  ASSERT_EQ(V2[4], 2) << "legacy encoder must stamp wire version 2";
  auto Decoded = core::decodeMessage(V2, T.Dec);
  ASSERT_TRUE(Decoded.has_value());
  EXPECT_EQ(Decoded->Round, M.Round);
  EXPECT_EQ(Decoded->view(), M.view());
  EXPECT_EQ(Decoded->border(), M.border());
  EXPECT_EQ(Decoded->Opinions, M.Opinions);
}

TEST(WireTest, LegacyV1TruncationStillRejected) {
  WireTables T;
  auto Bytes = core::encodeMessageV1(sampleMessage(T.Enc));
  for (size_t Cut = 0; Cut < Bytes.size(); ++Cut) {
    std::vector<uint8_t> Truncated(Bytes.begin(), Bytes.begin() + Cut);
    core::ViewTable Dec(T.G);
    EXPECT_FALSE(core::decodeMessage(Truncated, Dec).has_value())
        << "v1 truncation at " << Cut << " accepted";
  }
}

TEST(WireTest, RejectsWrappingDeltaInV2Region) {
  // Hand-build a v2 frame whose second view delta wraps uint64: id 100
  // followed by delta 2^64-50 would compute "id" 50 < 100. The decoder
  // must reject it rather than silently re-sort.
  std::vector<uint8_t> Bytes = {0x43, 0x4C, 0x45, 0x43, 2, 0};
  Bytes.push_back(1); // round = 1
  Bytes.push_back(2); // |V| = 2
  Bytes.push_back(100);
  for (uint64_t Delta = ~uint64_t(49); Delta >= 0x80; Delta >>= 7)
    Bytes.push_back(static_cast<uint8_t>(Delta) | 0x80);
  Bytes.push_back(1); // final varint byte of the wrapping delta
  Bytes.push_back(1); // |B| = 1
  Bytes.push_back(7);
  Bytes.push_back(2); // opinion kind Reject (no value follows)
  WireTables T;
  EXPECT_FALSE(core::decodeMessage(Bytes, T.Dec).has_value());
}

TEST(WireTest, FuzzV1RandomBuffersNeverCrash) {
  Rng Rand(4096);
  graph::Graph G(1);
  // Random buffers stamped with a valid v1 header exercise the legacy
  // decode path, which the all-random fuzz above almost never reaches.
  for (int Trial = 0; Trial < 2000; ++Trial) {
    size_t Len = 6 + Rand.nextBelow(64);
    std::vector<uint8_t> Bytes(Len);
    for (auto &B : Bytes)
      B = static_cast<uint8_t>(Rand.next());
    Bytes[0] = 0x43;
    Bytes[1] = 0x4C;
    Bytes[2] = 0x45;
    Bytes[3] = 0x43;
    Bytes[4] = 1;
    Bytes[5] = static_cast<uint8_t>(Rand.nextBelow(2));
    core::ViewTable Dec(G);
    (void)core::decodeMessage(Bytes, Dec); // Must not crash or assert.
  }
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

// -- Captured v1/v2 compat corpus ---------------------------------------------
//
// Hex frames captured from the v1/v2 encoders at the moment they were the
// current wire format (before the v3 data plane landed). Both directions
// are pinned: today's legacy encoders must reproduce the bytes exactly,
// and today's decoder must accept them with identical logical content.

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

/// The three captured messages, rebuilt against \p Views.
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
  {
    Message M;
    M.Round = 1;
    M.setView(Views.intern(Region{0}, Region{1}));
    M.Opinions = OpinionVec(1);
    Out.push_back(std::move(M));
  }
  return Out;
}

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

} // namespace

TEST(WireTest, CapturedCorpusEncodesByteForByte) {
  WireTables T;
  std::vector<Message> Msgs = corpusMessages(T.Enc);
  for (size_t I = 0; I < Msgs.size(); ++I) {
    EXPECT_EQ(core::encodeMessageV1(Msgs[I]), fromHex(CorpusV1[I]))
        << "v1 frame " << I << " drifted";
    EXPECT_EQ(core::encodeMessageV2(Msgs[I]), fromHex(CorpusV2[I]))
        << "v2 frame " << I << " drifted";
  }
}

TEST(WireTest, CapturedCorpusDecodesUnchanged) {
  WireTables T;
  std::vector<Message> Msgs = corpusMessages(T.Enc);
  for (size_t I = 0; I < Msgs.size(); ++I) {
    for (const char *Hex : {CorpusV1[I], CorpusV2[I]}) {
      auto Decoded = core::decodeMessage(fromHex(Hex), T.Dec);
      ASSERT_TRUE(Decoded.has_value()) << "corpus frame " << I;
      EXPECT_EQ(Decoded->Round, Msgs[I].Round);
      EXPECT_EQ(Decoded->view(), Msgs[I].view());
      EXPECT_EQ(Decoded->border(), Msgs[I].border());
      EXPECT_EQ(Decoded->Opinions, Msgs[I].Opinions);
      EXPECT_EQ(Decoded->Final, Msgs[I].Final);
    }
  }
}
