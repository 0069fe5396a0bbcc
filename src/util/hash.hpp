#pragma once
/// \file hash.hpp
/// \brief FNV-1a fingerprints and 64-bit hex codecs shared by every
/// persistence format (`rdse.cachedb.v2`, `rdse.checkpoint.v1`,
/// `rdse.journal.v1`).
///
/// JSON numbers are doubles, so a full 64-bit word cannot round-trip
/// through `util/json` as a number; every artifact stores u64 values
/// (checksums, RNG words, seeds) as 16-digit lowercase hex strings
/// instead.

#include <cstdint>
#include <string>
#include <string_view>

namespace rdse {

/// FNV-1a 64-bit hash.
[[nodiscard]] std::uint64_t fnv1a64(std::string_view text);

/// `fnv1a64` rendered as 16 lowercase hex digits.
[[nodiscard]] std::string fnv1a64_hex(std::string_view text);

/// `value` rendered as 16 lowercase hex digits.
[[nodiscard]] std::string u64_to_hex(std::uint64_t value);

/// Parses a 16-digit lowercase hex string produced by u64_to_hex.
/// Throws Error on any other input — artifacts never contain malformed
/// words unless they are corrupt, which must be loud.
[[nodiscard]] std::uint64_t u64_from_hex(std::string_view hex);

}  // namespace rdse
