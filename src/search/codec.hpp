#pragma once
// Byte-level primitives shared by the two on-disk formats (the binary
// run log and the columnar archive): CRC-32 and little-endian
// encode/decode.  Both formats are byte-for-byte defined in terms of
// these, so they live in one place.  Internal to src/search.

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace mergescale::search::codec {

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320) — the ubiquitous zlib
// polynomial, table-driven.
// ---------------------------------------------------------------------------

constexpr std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

inline constexpr std::array<std::uint32_t, 256> kCrcTable = make_crc_table();

inline std::uint32_t crc32(const char* data, std::size_t size) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    crc = kCrcTable[(crc ^ static_cast<unsigned char>(data[i])) & 0xFFu] ^
          (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

inline std::uint32_t crc32(std::string_view data) {
  return crc32(data.data(), data.size());
}

// ---------------------------------------------------------------------------
// Little-endian encode/decode, independent of host byte order.  put_*
// appends to a string; poke_* writes into a caller-sized buffer.
// ---------------------------------------------------------------------------

template <typename T>
void poke_le(char* p, T v) {
  for (std::size_t byte = 0; byte < sizeof(T); ++byte) {
    p[byte] = static_cast<char>((v >> (8 * byte)) & 0xFF);
  }
}

template <typename T>
T get_le(const char* p) {
  T v = 0;
  for (std::size_t byte = sizeof(T); byte-- > 0;) {
    v = static_cast<T>((v << 8) | static_cast<unsigned char>(p[byte]));
  }
  return v;
}

template <typename T>
void put_le(std::string& out, T v) {
  char bytes[sizeof(T)];
  poke_le(bytes, v);
  out.append(bytes, sizeof bytes);
}

// Width-named forms: the on-disk width comes from the name, never from
// the deduced type of the argument.
inline void poke_u16(char* p, std::uint16_t v) { poke_le(p, v); }
inline void poke_u32(char* p, std::uint32_t v) { poke_le(p, v); }
inline void poke_u64(char* p, std::uint64_t v) { poke_le(p, v); }
inline void poke_f64(char* p, double v) {
  poke_le(p, std::bit_cast<std::uint64_t>(v));
}
inline void put_u16(std::string& out, std::uint16_t v) { put_le(out, v); }
inline void put_u32(std::string& out, std::uint32_t v) { put_le(out, v); }
inline void put_u64(std::string& out, std::uint64_t v) { put_le(out, v); }
inline std::uint16_t get_u16(const char* p) { return get_le<std::uint16_t>(p); }
inline std::uint32_t get_u32(const char* p) { return get_le<std::uint32_t>(p); }
inline std::uint64_t get_u64(const char* p) { return get_le<std::uint64_t>(p); }
inline double get_f64(const char* p) {
  return std::bit_cast<double>(get_u64(p));
}

}  // namespace mergescale::search::codec
