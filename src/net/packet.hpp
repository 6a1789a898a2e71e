// mbuf-style packet buffer.
//
// Mirrors the parts of rte_mbuf the applications need: a fixed-capacity
// data room with headroom (so tunnel encapsulation can prepend headers
// without copying the payload), a wire length, and metadata (arrival
// timestamp, RSS hash, input queue). A Packet never owns heap memory
// itself.
#pragma once

#include <cassert>
#include <cstdint>
#include <cstring>

namespace metro::net {

class Packet {
 public:
  static constexpr std::size_t kDataRoom = 2048;
  static constexpr std::size_t kHeadroom = 128;

  Packet() { reset(); }

  /// Restore the pristine state.
  void reset() {
    data_off_ = kHeadroom;
    data_len_ = 0;
    arrival_ns = 0;
    rss_hash = 0;
    queue = 0;
  }

  std::uint8_t* data() { return room_ + data_off_; }
  const std::uint8_t* data() const { return room_ + data_off_; }
  std::size_t size() const { return data_len_; }
  std::size_t headroom() const { return data_off_; }
  std::size_t tailroom() const { return kDataRoom - data_off_ - data_len_; }

  /// Set the payload, centered after the headroom.
  void assign(const void* src, std::size_t len) {
    assert(len <= kDataRoom - kHeadroom);
    data_off_ = kHeadroom;
    data_len_ = len;
    std::memcpy(data(), src, len);
  }

  /// Fill `len` bytes with a pattern (synthetic payloads).
  void fill(std::uint8_t byte, std::size_t len) {
    assert(len <= kDataRoom - kHeadroom);
    data_off_ = kHeadroom;
    data_len_ = len;
    std::memset(data(), byte, len);
  }

  /// Prepend `len` bytes (tunnel encap). Returns pointer to the new start.
  std::uint8_t* prepend(std::size_t len) {
    assert(len <= data_off_);
    data_off_ -= len;
    data_len_ += len;
    return data();
  }

  /// Remove `len` bytes from the front (decap).
  std::uint8_t* adj(std::size_t len) {
    assert(len <= data_len_);
    data_off_ += len;
    data_len_ -= len;
    return data();
  }

  /// Append `len` bytes at the tail (padding, trailers). Returns pointer to
  /// the appended region.
  std::uint8_t* append(std::size_t len) {
    assert(len <= tailroom());
    std::uint8_t* p = room_ + data_off_ + data_len_;
    data_len_ += len;
    return p;
  }

  /// Trim `len` bytes from the tail.
  void trim(std::size_t len) {
    assert(len <= data_len_);
    data_len_ -= len;
  }

  /// Typed view at a byte offset into the payload.
  template <typename T>
  T* at(std::size_t offset) {
    assert(offset + sizeof(T) <= data_len_);
    return reinterpret_cast<T*>(data() + offset);
  }
  template <typename T>
  const T* at(std::size_t offset) const {
    assert(offset + sizeof(T) <= data_len_);
    return reinterpret_cast<const T*>(data() + offset);
  }

  // --- metadata (rte_mbuf-style) ---------------------------------------
  std::int64_t arrival_ns = 0;
  std::uint32_t rss_hash = 0;
  std::uint16_t queue = 0;

 private:
  std::size_t data_off_ = kHeadroom;
  std::size_t data_len_ = 0;
  alignas(64) std::uint8_t room_[kDataRoom];
};

}  // namespace metro::net
