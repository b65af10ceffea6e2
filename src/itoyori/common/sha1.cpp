#include "itoyori/common/sha1.hpp"

#include <cstring>

namespace ityr::common {

namespace {

constexpr std::uint32_t rotl32(std::uint32_t x, int k) {
  return (x << k) | (x >> (32 - k));
}

}  // namespace

void sha1::reset() {
  h_[0] = 0x67452301u;
  h_[1] = 0xefcdab89u;
  h_[2] = 0x98badcfeu;
  h_[3] = 0x10325476u;
  h_[4] = 0xc3d2e1f0u;
  total_len_ = 0;
  buf_len_ = 0;
}

void sha1::process_block(const std::uint8_t* block) {
  std::uint32_t w[80];
  for (int i = 0; i < 16; i++) {
    w[i] = (std::uint32_t(block[4 * i]) << 24) | (std::uint32_t(block[4 * i + 1]) << 16) |
           (std::uint32_t(block[4 * i + 2]) << 8) | std::uint32_t(block[4 * i + 3]);
  }
  for (int i = 16; i < 80; i++) {
    w[i] = rotl32(w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16], 1);
  }

  std::uint32_t a = h_[0], b = h_[1], c = h_[2], d = h_[3], e = h_[4];

  // One loop per 20-round stage, so f and k are fixed within each loop.
  auto step = [&](std::uint32_t f, std::uint32_t k, std::uint32_t wi) {
    const std::uint32_t tmp = rotl32(a, 5) + f + e + k + wi;
    e = d;
    d = c;
    c = rotl32(b, 30);
    b = a;
    a = tmp;
  };
  for (int i = 0; i < 20; i++) step((b & c) | (~b & d), 0x5a827999u, w[i]);
  for (int i = 20; i < 40; i++) step(b ^ c ^ d, 0x6ed9eba1u, w[i]);
  for (int i = 40; i < 60; i++) step((b & c) | (b & d) | (c & d), 0x8f1bbcdcu, w[i]);
  for (int i = 60; i < 80; i++) step(b ^ c ^ d, 0xca62c1d6u, w[i]);

  h_[0] += a;
  h_[1] += b;
  h_[2] += c;
  h_[3] += d;
  h_[4] += e;
}

void sha1::update(const void* data, std::size_t len) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  total_len_ += len;

  if (buf_len_ > 0) {
    std::size_t take = std::min<std::size_t>(64 - buf_len_, len);
    std::memcpy(buf_ + buf_len_, p, take);
    buf_len_ += take;
    p += take;
    len -= take;
    if (buf_len_ == 64) {
      process_block(buf_);
      buf_len_ = 0;
    }
  }
  while (len >= 64) {
    process_block(p);
    p += 64;
    len -= 64;
  }
  if (len > 0) {
    std::memcpy(buf_, p, len);
    buf_len_ = len;
  }
}

sha1::digest_type sha1::finish() {
  std::uint64_t bit_len = total_len_ * 8;

  const std::uint8_t pad_one = 0x80;
  update(&pad_one, 1);
  if (buf_len_ > 56) {
    // No room for the length field: zero-fill this block and pad a fresh one.
    std::memset(buf_ + buf_len_, 0, 64 - buf_len_);
    process_block(buf_);
    buf_len_ = 0;
  }
  std::memset(buf_ + buf_len_, 0, 56 - buf_len_);

  std::uint8_t len_be[8];
  for (int i = 0; i < 8; i++) len_be[i] = std::uint8_t(bit_len >> (56 - 8 * i));
  // Bypass update() so total_len_ bookkeeping is irrelevant for the tail.
  std::memcpy(buf_ + 56, len_be, 8);
  process_block(buf_);
  buf_len_ = 0;

  digest_type d;
  for (int i = 0; i < 5; i++) {
    d[4 * i]     = std::uint8_t(h_[i] >> 24);
    d[4 * i + 1] = std::uint8_t(h_[i] >> 16);
    d[4 * i + 2] = std::uint8_t(h_[i] >> 8);
    d[4 * i + 3] = std::uint8_t(h_[i]);
  }
  return d;
}

}  // namespace ityr::common
