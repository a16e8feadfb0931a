// Binary wire format for simulated RPC payloads.
//
// Everything that crosses the simulated network is really serialized — the
// encoded size feeds the NIC bandwidth model, and decode errors surface as
// Status rather than UB. Encoding: fixed-width little-endian integers,
// varint-prefixed strings/blobs.
//
// Encoders size their buffer once: message types that know their encoded
// size (`EncodedSize()`, built from the helpers below) pass it to the
// constructor, and every other writer starts at kDefaultCapacity, which
// holds the typical small RPC frame without a reallocation.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace dufs::wire {

// Encoded size of `v` as a WriteVarint.
constexpr std::size_t VarintSize(std::uint64_t v) {
  std::size_t n = 1;
  for (; v >= 0x80; v >>= 7) ++n;
  return n;
}
// Encoded size of a WriteString/WriteBytes of `len` bytes.
constexpr std::size_t BlobSize(std::size_t len) {
  return VarintSize(len) + len;
}

class BufferWriter {
 public:
  static constexpr std::size_t kDefaultCapacity = 128;

  BufferWriter() : BufferWriter(kDefaultCapacity) {}
  explicit BufferWriter(std::size_t capacity) { buf_.reserve(capacity); }

  void WriteU8(std::uint8_t v) { buf_.push_back(v); }
  void WriteU16(std::uint16_t v) { AppendLE(v); }
  void WriteU32(std::uint32_t v) { AppendLE(v); }
  void WriteU64(std::uint64_t v) { AppendLE(v); }
  void WriteI64(std::int64_t v) { AppendLE(static_cast<std::uint64_t>(v)); }
  void WriteBool(bool v) { WriteU8(v ? 1 : 0); }

  // LEB128-style unsigned varint.
  void WriteVarint(std::uint64_t v);

  void WriteString(std::string_view s);
  void WriteBytes(const std::vector<std::uint8_t>& b);

  const std::vector<std::uint8_t>& data() const { return buf_; }
  std::vector<std::uint8_t> Take() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  template <typename T>
  void AppendLE(T v) {
    std::uint8_t bytes[sizeof(T)];
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      bytes[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
    buf_.insert(buf_.end(), bytes, bytes + sizeof(T));
  }

  std::vector<std::uint8_t> buf_;
};

class BufferReader {
 public:
  explicit BufferReader(const std::vector<std::uint8_t>& buf)
      : data_(buf.data()), size_(buf.size()) {}
  BufferReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  Result<std::uint8_t> ReadU8();
  Result<std::uint16_t> ReadU16();
  Result<std::uint32_t> ReadU32();
  Result<std::uint64_t> ReadU64();
  Result<std::int64_t> ReadI64();
  Result<bool> ReadBool();
  Result<std::uint64_t> ReadVarint();
  Result<std::string> ReadString();
  Result<std::vector<std::uint8_t>> ReadBytes();

  std::size_t remaining() const { return size_ - pos_; }
  bool AtEnd() const { return pos_ == size_; }

 private:
  template <typename T>
  Result<T> ReadLE() {
    if (remaining() < sizeof(T)) {
      return Status(StatusCode::kIoError, "wire: short read");
    }
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(static_cast<T>(data_[pos_ + i]) << (8 * i));
    }
    pos_ += sizeof(T);
    return v;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace dufs::wire
