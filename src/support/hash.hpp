#ifndef GRAPHITI_SUPPORT_HASH_HPP
#define GRAPHITI_SUPPORT_HASH_HPP

/**
 * @file
 * FNV-1a 64, the one hash behind state fingerprints, verdict-store
 * keys and derived plan seeds. Every value it produces is pinned by a
 * determinism test somewhere, so the byte order below must not change.
 */

#include <cstdint>
#include <string_view>

namespace graphiti {

/** FNV-1a 64 offset basis: the state of an empty hash. */
constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

/** Fold the bytes of @p text into @p h. */
inline std::uint64_t
fnv1a64(std::uint64_t h, std::string_view text)
{
    for (char c : text) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** Fold the eight bytes of @p v into @p h, least significant first. */
inline std::uint64_t
fnv1a64(std::uint64_t h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (i * 8)) & 0xff;
        h *= 0x100000001b3ULL;
    }
    return h;
}

}  // namespace graphiti

#endif  // GRAPHITI_SUPPORT_HASH_HPP
