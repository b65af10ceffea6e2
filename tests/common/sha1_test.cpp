#include "itoyori/common/sha1.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <iterator>
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

// Every length from 0 to 200 bytes of the pattern byte[i] = (131 i + 17)
// mod 256: one to four blocks, every padding position, and a schedule fed
// with varied bits. Digests from Python's hashlib.sha1.
TEST(Sha1, MultiBlockPatternVectors) {
  static const char* const digests[] = {
      "da39a3ee5e6b4b0d3255bfef95601890afd80709",
      "a8abd012eb59b862bf9bc1ea443d2f35a1a2e222",
      "32541e07b1bc39d03f1f73dc28bda8f7083fa907",
      "f1cab2819134d2787cf47b8aed7695c80083d835",
      "556ed49ed8ef1f3a0201b10dfb1f8a90f2a306f5",
      "8311fc850950edae8abe7de6b30a6bef528c8c0e",
      "625fdb37d690e345aa19a0951b2292a35fe366a0",
      "cb65ae6489ddfdc6d18affbc778fb08c207cf241",
      "d7d5e8643bb0f896024ebfa1b572a98c6b327cdc",
      "fdd10e8db48e322c8e2ecae74288b1a7fa907699",
      "606d3ce373a91a71aa32804f799d151583188f61",
      "18fa481e4fa800bdd59e3db72abdb4a82a978a10",
      "a6690a466d1b711b82e2844e7c42d854d4fb6520",
      "8bf19ccdbd60a7492ef79e280147aa0f159f70ea",
      "4213d2788ec06802c232c3a6e2af1b37e3e3e181",
      "3f07f09637f86f37ff11c2b70a5a98d3f71a8d90",
      "8a446b46bcd15457292193270077f04eb96650ea",
      "7c95062acba83dc08eaecc5e13d91684f7b56bfe",
      "3363e449cfb07e0241b3c4f16c95747875e72ad9",
      "6fc7a83e4a2f23440dbea66b70f1a545711a0fe6",
      "331fd24de14ab9be5f5f3a58706bc154841db132",
      "e31f7c257b90c6aa466616c8c9ed8af446db59b1",
      "21e10329a2c833938ca2e23b9e25ab47218e4c92",
      "976942de28c0ef3133e5e1487cce07f3f138c918",
      "1020d019cc333bbf7e9b0937d59c12b0110902b5",
      "17c0637200097d0c8fc9cad0c459500f3c8996d1",
      "f8324b602789f4f7acf361178181d39c4232dc51",
      "b17188f47f28da416daca234aeedf0fac86fcf35",
      "dda54c553dc73d0ef5fb3bb732d1bc46e150c832",
      "a285b0796936b286856f2c5bec480e2a4552fd52",
      "a4cb658a59b778303c0adfa5d02b0682fb7352ff",
      "66e1e497aef2d1bf76c37f2e60539020a5237e0b",
      "5bb91e40d3f2b938ff6ab16cfa73eaa661646ee4",
      "6407d5d9165c67b190ff73482dc03b4f1a4d595a",
      "5b72f3b9cf5faa1de86d3baf3d8bffd08a595220",
      "5d6a3840efed6915352ec6205df67778df87dfc1",
      "f6f2925ea9fd3c0121b0e0e4ab302d1f5f4770ba",
      "d116f58e84ef2b91ff672502e3e728bf1db007d1",
      "9d76a81573ae4fe90318bd8e0bc6ed059426bb6c",
      "34ee77b6a60be2e3e593af5223b8f0668ad5d833",
      "f59def1bed421c1082544823a7e0340fb13645c3",
      "2793cb2316f0bd5b20cb40bef34ac17692d0aa0d",
      "e2e97fe2f178361e19297b20d9fa5be95245e33e",
      "e9476a98de7d77564eb2e095ef9a94ef589894f3",
      "547b0ff6869e888364c438b057e40475d4115b7b",
      "c908ff8b16460e7fd8879744c32b289c1b6c8fa4",
      "3ca2f1a462726972f0ffae5f6bc75233efdff6a9",
      "d2d5021147538973b5188fbb822ae16f008d3ce0",
      "0365598fc8919ba34f5a76784e814eaca410c554",
      "2eebebf35c738ddeaa3234385d7069f0c2d1c8d2",
      "bbd469464d4e31cea3a984e62d28feebd6805982",
      "6085d54907efb2123a6d095a78142952fe3c79a5",
      "53ea89ca521da7bed1911cd66097605333464d20",
      "0702ed4d920a1bbd3185f3ca62cb05a03b849fd1",
      "1334c067622bd730732e37047be7ed9ba34221b8",
      "c460dda9725993db7b635e25646d4fcd9bd30871",
      "1794a43ae77e95e8cc39a31e2727c58c718ce53f",
      "f1f9f3508b8e3b4ba0d269da0296f7f5d2841d08",
      "65f83e388459979cb91e95a5b0f8b2c55daf997f",
      "8dffd8fd794445f6454af1248f7a78e5ae760807",
      "f125934a1ea38ac366aaf23998df005e49ef36d0",
      "a46c2b53ac9438aae7f8f4252d64bd0a4f33ffc9",
      "f186bd4461fb00468a728232731162fb8c4f79a5",
      "5274fdff2cc6384f500028c1e794d62aed870966",
      "8477cdffd4b543880bcf926612a161e4a08abfbf",
      "180b0aab8816d0ef092f1224dfc0568d08c22fe9",
      "ac9865d2860a1a00b84eb0d0cc248d760a13d9b5",
      "ee2889b1db28358afd9ea5d1b0df0d8071d73ab3",
      "ed1e641e0b046b3734598e0c64b8b9c26252cfac",
      "0307c7d1e01b1cb986b8021a5e998e53a4f4a308",
      "085590d5a7021e65daad6df2e17e9e6305e35690",
      "4ec3a63a4395d712a5cc6149eb32b5c62f3fa4e1",
      "1a32e55c32b8463d70a17daa2b133dfdda90ab70",
      "426e1f8231ab23a564918c6e93a054bd04f7c76c",
      "3fc40b4ecc4b06f059a0a8ff4d8250b4dd7b6e13",
      "a99dc17ac59286c31835ba225f793c828f4361a3",
      "fc2d3af01140dcf0e7c3506bf3cba934a81935e9",
      "d706ee1efc5d32dd15d0883e8b2c21a76dbdb92c",
      "080d4f58879ba96259d5a334f7017b7f2345bf0c",
      "662f20f9b36a3ef7047535cc505454efa517961e",
      "f01752ad11cfbf9046d994bf886f451163dbdc9a",
      "297ffe14db1f77c4368330dad28dff5d50167add",
      "14f3eb5c05a50c27207c11a5d5a0c7aa8f8d8d2b",
      "9a454482e56a7bcaa255a090bda39402d0ea7592",
      "7d0dc25b9065153eefe395d00b889f3e282a0d81",
      "84e78d77c266a9fc6a8ab3b1ab8cb3318369ecde",
      "56b28673615aa4e2eab643ca727308e5fd49438a",
      "8259ccb5aad55f3595454d9a826fc05913cacde9",
      "b5193b1c73402218d4648f064626ee35f2094014",
      "16fe5f171ae8befbc7bc94f9fd00a5b85237b5ca",
      "fd2e7793f2b36df8e1dc3925f902e7c42ef36ac8",
      "cdac1bf53dc9f4bfcb8b81a07608c77ad76ab549",
      "e547f992d963c1830cbad34393ec59a1f0ef1d41",
      "8d31b3678e391bd494bcf5ad1203be694eb16463",
      "72d080c5c35dca6a79be86c0f3939af627e45f39",
      "49b75d022ec18914d344a7f54410fe3bb5a1b38d",
      "8ceedc63a18a6bb4a91bfaa0a169db8d757c17df",
      "3b27a7e2055e11f794932ad27f0fca71a1f6a814",
      "fc99ad8b59dd504f884e8d6a658e8fb5a64137f3",
      "f2686a959f4cc5c58ffb3f16dc62993e7bcf53ce",
      "0c976c8e2489a73a4a9482e66a5df1611a9a9215",
      "e9f9c52258d75f84fdbd3df590fa55409f16ecfb",
      "f9a9f2f986f5471a85930e2c2f0a7c8785b93349",
      "8fb2629c8113b01760e3fe2c541dd913258fb8d1",
      "717e927eba6d82bcab28710294a24f1bcfff5997",
      "c605a411de6ab755cddd3025c911c2a5617cd75e",
      "9a4dba7d83ce83062aba743ee28abc8cf289e6cf",
      "1442b47b78e3a683cc89d17cf26d8e0ecfec4340",
      "92eac53a3ec44622d39ab3bab71adb6e853ef0d7",
      "8902dd8c247cf9890dc3d4a9f83e88cbd29b0d35",
      "954661102438b1d7e22ab7204ab8c4e6c3a1fe6c",
      "7089262dace1d86ce7c3801bf4f71fd0afcec009",
      "fac67fbc1504e5e84a55610c7def6e7de6fd5172",
      "57cf8398d3eb773cd393914766b7111c184b8296",
      "cfca9ee7c3d57daa7f23b6cab2f897308227893d",
      "8b93cc87e40f093c93473ac45db56b146467fc47",
      "19ce0583471d27be93614681368cff5a9da948eb",
      "190030447a5c7a1349ee030c3266423229e84609",
      "bdc0a9b8ba27d303882299811da2abb5a3a958ac",
      "10048d4c29cba635734b5f686a1942dfeb8239d9",
      "384a2c7f5a8eb395fab7a1ae5ec76f08ccaac277",
      "fe8c21dc0700fc559b04e0b4ed763d7ce5519e74",
      "043f8f273154d83969c886924edfa8140c2416f3",
      "ddb8e0a0f3728937b932a78a3c20505d46a96b4d",
      "9a0f3ec4fc4c63e70f599f06211dbd88a3a54d89",
      "e8cb5e00a465a2f8eb61a4f1cab9133d066fed8a",
      "018abe5698bfe53dc71316937d132838578a9220",
      "29d7c61615e0894d423d060678ee674652617c81",
      "dc9f7cd67239c5030128aa4f129b865adc64d2a3",
      "e9c20ff8b05321dadd7e9c320e29fe460559f31d",
      "0c313a181a30601c21ca307c7e447896554e2e2c",
      "238076c02d288e8da98cc870f633d6c4116151ab",
      "92d39f168dae6ab2e6c41618a8d994652fd3a9ea",
      "f4ba860fdaea2553386e61cb46c10a109863adc1",
      "5acc3b50e9b0e4439170858357b4e385072063f7",
      "be9c09922a346ee207dcea8ca333ec0c81a507dc",
      "c53fb96aab30495a727c5a1cec873ac22c9eed22",
      "7bbb026bca9631b4a3c2a7dd9b8864db4918dd9c",
      "d50c9a776111eb7005f42590b564681891dbf4aa",
      "d8b053863f6181f08a3b41b66b11ae8b590b2c19",
      "e74b80a32b617d4de8a981be048858931acc16ee",
      "711d98f716960a8a5528a450d3c740994026bed2",
      "fb7f7cefe79a6f0afcd86757aeb22592f5345d25",
      "91b4f0abad96ef323d57bf4451a3e283bd7aca9c",
      "a8922e372fe5b5611191435314e6fc99a3497970",
      "0003c0c3deb65c50295cca9d92f891af6258beb2",
      "f0ace848d3ff9178d1088b9fd90248bd514b28f1",
      "6a23304610b8004e18902d0526fc8d777ecd2514",
      "9057e82a4b2d138335538e0e3f9de56a2094bf2d",
      "c66059b02dbb962eb9be160814259e10ae124533",
      "a642cf1e078775a25888df95bb5d7013a425ab34",
      "678a25799d1b36b742819f2247a91b3b3f2ddc7d",
      "34024bba3af3b0d69e5f5ce1adc990f000292b18",
      "a7f7cba66cc362a2d819d0a63e6d57df4bb83330",
      "99e360f572c1e87efc77193aa6b355046457f26b",
      "fa57e267fc7b2b7a03060c33547d5fce142df63d",
      "f39e9219c77436a225aaf2abca18ecb32ffd2dc7",
      "89f802bf43560083fc52a0b03f806c26771d151c",
      "4407d36d6f82dc65b12e58ff9304b44beef960dd",
      "c0c2e19669275ddacf400b8c8f312d143c837573",
      "1f06bbd8bfecf30469aa499b5cf14f61231b2a9c",
      "a21adb735d55ca5dfc6a3babf309f4ded1e98c52",
      "f757bf8f07801af2078f7107c04c7f25704aae36",
      "d4cd20686f562e3314f32acc7de2d59a577a5291",
      "06a1647ad817df0c265def54bafe02c87d6d7109",
      "99f175986ae8204a54505a493ba3d6873b2fc616",
      "b25d998b5d4fd6e6c2cc34a595066f83a3384a15",
      "5024a302cef0715e5eb1a6deac8bce74405eccc1",
      "8e98aa279964062342894595a1b1bba2b36945a4",
      "46b7c53f226e2034af630faadd21f268c7a12bc5",
      "072c2284f802d92accdc5d6999715dc212c35572",
      "b98ffc0dbb3ce5792f4b1f7799ba3149d46fe6ce",
      "b1978b0ab844d01b83b1061289235cafaee2c8b1",
      "9c76f0c07a0e40bf74bc3bd5fc68a2475de86431",
      "58cefb6abedfae3caae53522d4fdcff453a255a2",
      "c828264188ad2eb37b01ab5c5cff2ef69bc9792a",
      "ad5e4581e94bc2de76718752361466da32697ebe",
      "918aeaa7d08240c61787104295a586c136a9a28d",
      "f6a0a789bd4c35b21d7b3e2ac0a4538b235e2c4f",
      "be80ede1ead4ec46d854671ef905b28cabb0f364",
      "e814fd32a62fe252b56ca283ca40f5131ab3353c",
      "86c6baaf4461367fdb2d55e9830a1ce425a55b59",
      "00f5bf72560e2138b5b1ecbac6b31cf4892f9822",
      "af9d9a613277acee044c411f2e906787155a9f5b",
      "bde61af73dd231a387295d221881c678bd7ed82e",
      "23c73ceb50f930a4234e209d79f9b04c48291dc1",
      "b774c5cc171982963a7bbe25cc4cfb04d4495139",
      "44333db6981d165906f72822d65afb5faf325317",
      "7a851d1edba6860e04cf32e8d2f225ebdc6e644a",
      "9c7ce7eb4b2ac3e75f68511153e75167824d3bd7",
      "bdbf6591906ed4837aa6935215c48392e6cea1fe",
      "5252ba37a4db2ccd0d8588236b1908e2f85e1966",
      "571a6a2cb9de7fa2b540a882116be3191e5d16bb",
      "ebeb488a35eae97e8610a999909b658515643af9",
      "2f870fc046f831ee8e3bbfb5f52ea0beee6cb835",
      "0771dbb2d9f5bb5c92e73377757f1fca5d7d8a29",
      "0168ff6cbbf31614537b995bf1f2dce7ae4c64ef",
      "eb25610066b71e283bd271b8c45736aed6fbc10b",
      "d3dab863d9110e52e05fd567cfaf0cc90bd54d19",
      "315f47ef4b5693be950a62a05a8bdcfe580ca2d1",
      "e8fe7558aba7a1e771db54e7bff82d3db6919321",
  };
  std::string msg;
  for (std::size_t i = 0; i < 200; i++) msg += static_cast<char>((i * 131 + 17) & 0xff);
  ASSERT_EQ(std::size(digests), msg.size() + 1);
  for (std::size_t len = 0; len < std::size(digests); len++) {
    EXPECT_EQ(sha1_hex(msg.substr(0, len)), digests[len]) << "len=" << len;
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
