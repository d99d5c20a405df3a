// Streaming wire decoder for the length-prefixed frame stream.
//
// On the wire every frame travels as a 4-byte little-endian length prefix
// followed by the frame bytes. A single recv() may deliver any slice of
// that stream: half a prefix, two and a half coalesced frames, one giant
// frame in twenty pieces. StreamDecoder turns that arbitrary chunking back
// into whole frames:
//
//   decoder.feed(bytes, n);                 // any chunking whatsoever
//   while (decoder.next(frame)) deliver(frame);
//   // decoder.buffered_bytes() — the retained tail of a partial frame
//
// The decoder never copies a frame twice: bytes accumulate in one buffer
// and complete frames are moved out. It is not thread-safe; each
// connection owns one (the event loop is single-threaded per endpoint).
#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

namespace cluster {

/// Maximum accepted frame length (64 MiB). A stream announcing more is
/// corrupt or hostile; callers treat `overflowed()` as a dead connection
/// rather than attempting a multi-gigabyte allocation.
inline constexpr std::uint32_t kMaxWireFrameBytes = 64u << 20;

class StreamDecoder {
 public:
  /// Appends `n` raw stream bytes. Cheap; parsing happens in next().
  void feed(const std::uint8_t* data, std::size_t n) {
    buf_.insert(buf_.end(), data, data + n);
  }

  /// Pops the next complete frame into `frame`. False when the buffered
  /// tail is still short of one whole frame (or the stream overflowed).
  bool next(std::vector<std::uint8_t>& frame) {
    if (overflowed_) return false;
    const std::size_t avail = buf_.size() - pos_;
    if (avail < 4) {
      compact();
      return false;
    }
    const std::uint32_t len = static_cast<std::uint32_t>(buf_[pos_]) |
                              (static_cast<std::uint32_t>(buf_[pos_ + 1]) << 8) |
                              (static_cast<std::uint32_t>(buf_[pos_ + 2]) << 16) |
                              (static_cast<std::uint32_t>(buf_[pos_ + 3]) << 24);
    if (len > kMaxWireFrameBytes) {
      overflowed_ = true;
      return false;
    }
    if (avail - 4 < len) {
      compact();
      return false;
    }
    frame.assign(buf_.begin() + static_cast<std::ptrdiff_t>(pos_ + 4),
                 buf_.begin() + static_cast<std::ptrdiff_t>(pos_ + 4 + len));
    pos_ += 4 + len;
    if (pos_ == buf_.size()) {
      buf_.clear();
      pos_ = 0;
    }
    return true;
  }

  /// Bytes of an incomplete frame (prefix included) retained for the next
  /// feed. Zero exactly when the stream is at a frame boundary.
  [[nodiscard]] std::size_t buffered_bytes() const { return buf_.size() - pos_; }

  /// A frame announced a length beyond kMaxWireFrameBytes; the stream is
  /// unrecoverable and the connection should be dropped.
  [[nodiscard]] bool overflowed() const { return overflowed_; }

 private:
  /// Slides the retained tail to the buffer front so consumed bytes do not
  /// accumulate across partial frames.
  void compact() {
    if (pos_ == 0) return;
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }

  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;  ///< consumed offset into buf_
  bool overflowed_ = false;
};

/// The 4-byte little-endian prefix of a `len`-byte frame.
inline void encode_wire_prefix(std::uint32_t len, std::uint8_t out[4]) {
  out[0] = static_cast<std::uint8_t>(len & 0xFF);
  out[1] = static_cast<std::uint8_t>((len >> 8) & 0xFF);
  out[2] = static_cast<std::uint8_t>((len >> 16) & 0xFF);
  out[3] = static_cast<std::uint8_t>((len >> 24) & 0xFF);
}

}  // namespace cluster
