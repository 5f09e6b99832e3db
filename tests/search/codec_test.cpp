#include "search/codec.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <string>

namespace mergescale::search::codec {
namespace {

TEST(Codec, Crc32MatchesTheStandardCheckValue) {
  // The CRC-32/ISO-HDLC (zlib) check value: both on-disk formats frame
  // with this exact function, so a drift here would orphan every file.
  EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(crc32(std::string_view{}), 0u);
}

TEST(Codec, LittleEndianBytesArePinned) {
  std::string out;
  put_u16(out, 0x0102u);
  put_u32(out, 0x03040506u);
  put_u64(out, 0x0708090A0B0C0D0Eull);
  EXPECT_EQ(out, std::string("\x02\x01\x06\x05\x04\x03"
                             "\x0E\x0D\x0C\x0B\x0A\x09\x08\x07",
                             14));
  EXPECT_EQ(get_u16(out.data()), 0x0102u);
  EXPECT_EQ(get_u32(out.data() + 2), 0x03040506u);
  EXPECT_EQ(get_u64(out.data() + 6), 0x0708090A0B0C0D0Eull);
}

TEST(Codec, PokeAndGetRoundTripExtremes) {
  char buf[8];
  for (const std::uint64_t v :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{0x80},
        std::numeric_limits<std::uint64_t>::max()}) {
    poke_u64(buf, v);
    EXPECT_EQ(get_u64(buf), v);
  }
  poke_u32(buf, 0xFFFFFFFFu);
  EXPECT_EQ(get_u32(buf), 0xFFFFFFFFu);
  for (const double v : {0.0, -0.0, 1.5, -2.25e300,
                         std::numeric_limits<double>::infinity()}) {
    poke_f64(buf, v);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(get_f64(buf)),
              std::bit_cast<std::uint64_t>(v));
  }
}

}  // namespace
}  // namespace mergescale::search::codec
