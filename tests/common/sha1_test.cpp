#include "itoyori/common/sha1.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <utility>

namespace {

std::string hex(const ityr::common::sha1::digest_type& d) {
  static const char* k = "0123456789abcdef";
  std::string s;
  for (auto b : d) {
    s += k[b >> 4];
    s += k[b & 0xf];
  }
  return s;
}

std::string sha1_hex(const std::string& msg) {
  return hex(ityr::common::sha1::hash(msg.data(), msg.size()));
}

}  // namespace

// FIPS 180-1 / well-known test vectors.
TEST(Sha1, EmptyString) {
  EXPECT_EQ(sha1_hex(""), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
}

TEST(Sha1, Abc) {
  EXPECT_EQ(sha1_hex("abc"), "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha1, TwoBlockMessage) {
  EXPECT_EQ(sha1_hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(Sha1, MillionAs) {
  ityr::common::sha1 h;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; i++) h.update(chunk.data(), chunk.size());
  EXPECT_EQ(hex(h.finish()), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1, QuickBrownFox) {
  EXPECT_EQ(sha1_hex("The quick brown fox jumps over the lazy dog"),
            "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12");
}

// Runs of 'a' at the padding boundaries: 55 bytes is the longest message
// whose padding fits in one block and 56 the shortest that needs a second;
// 63 and 64 end just short of and exactly on a block edge; 119 and 120
// repeat the 55/56 split one block later. Digests from Python's hashlib.sha1.
TEST(Sha1, PaddingBoundaryVectors) {
  const std::pair<std::size_t, const char*> vectors[] = {
      {55, "c1c8bbdc22796e28c0e15163d20899b65621d65a"},
      {56, "c2db330f6083854c99d4b5bfb6e8f29f201be699"},
      {63, "03f09f5b158a7a8cdad920bddc29b81c18a551f5"},
      {64, "0098ba824b5c16427bd7a1122a5a442a25ec644d"},
      {119, "ee971065aaa017e0632a8ca6c77bb3bf8b1dfc56"},
      {120, "f34c1488385346a55709ba056ddd08280dd4c6d6"},
  };
  for (const auto& [len, digest] : vectors) {
    EXPECT_EQ(sha1_hex(std::string(len, 'a')), digest) << "len=" << len;
  }
}

// Incremental updates with odd split points must agree with one-shot.
TEST(Sha1, IncrementalSplitsAgree) {
  const std::string msg =
      "Itoyori is the Japanese name of the fish threadfin breams. "
      "0123456789 0123456789 0123456789 0123456789 0123456789";
  const auto ref = sha1_hex(msg);
  for (std::size_t split = 0; split <= msg.size(); split += 7) {
    ityr::common::sha1 h;
    h.update(msg.data(), split);
    h.update(msg.data() + split, msg.size() - split);
    EXPECT_EQ(hex(h.finish()), ref) << "split=" << split;
  }
}

// Boundary lengths around the 64-byte block / 56-byte padding threshold.
TEST(Sha1, PaddingBoundaries) {
  for (std::size_t len : {54u, 55u, 56u, 57u, 63u, 64u, 65u, 119u, 120u, 128u}) {
    std::string m(len, 'x');
    ityr::common::sha1 a;
    a.update(m.data(), m.size());
    auto one = hex(a.finish());

    ityr::common::sha1 b;
    for (char c : m) b.update(&c, 1);
    auto bytewise = hex(b.finish());
    EXPECT_EQ(one, bytewise) << "len=" << len;
  }
}

TEST(Sha1, ResetReusesObject) {
  ityr::common::sha1 h;
  h.update("garbage", 7);
  h.reset();
  h.update("abc", 3);
  EXPECT_EQ(hex(h.finish()), "a9993e364706816aba3e25717850c26c9cd0d89d");
}
