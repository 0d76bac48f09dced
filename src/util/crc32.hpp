// CRC-32 (IEEE 802.3 / zlib polynomial) for checkpoint integrity. A
// truncated or bit-flipped model file must fail loudly at load time,
// not produce a silently corrupted network; util/serial's framed
// container appends a CRC over the payload and verifies it on read.
#pragma once

#include <cstddef>
#include <cstdint>

namespace laco {

/// Incremental CRC-32: pass the previous return value as `crc` to
/// extend a running checksum (zlib semantics; start with 0).
std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t crc = 0);

}  // namespace laco
