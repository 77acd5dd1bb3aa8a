/**
 * @file
 * The memory-management schemes compared in the evaluation (§5.1.3).
 */

#ifndef PIPM_SIM_SCHEME_HH
#define PIPM_SIM_SCHEME_HH

#include <array>
#include <optional>
#include <string_view>

namespace pipm
{

/** Every compared scheme of §5.1.3, plus the §4.3.1 naive-coherence
 *  ablation. */
enum class Scheme
{
    native,     ///< CXL-DSM with no migration (normalisation baseline)
    nomad,      ///< recency-based OS migration (Nomad/TPP-style)
    memtis,     ///< frequency-based OS migration with dynamic hot set
    hemem,      ///< frequency-threshold OS migration
    osSkew,     ///< ablation: PIPM vote policy + OS page mechanism
    hwStatic,   ///< ablation: PIPM mechanism + static mapping (Flat-Mode)
    pipmFull,   ///< the full PIPM design
    localOnly,  ///< upper bound: every access served locally ("Ideal")
    /**
     * §4.3.1's strawman: partial/incremental migration with a plain
     * 1-bit in-memory state and *no* ME/I' states — every local access
     * to a migrated line still traverses the CXL link, the device
     * coherence directory and a CXL memory read (to check the bit)
     * before being served from local DRAM (Fig. 8).
     */
    pipmNaive
};

/** The schemes Fig. 10 compares, in paper order. */
constexpr std::array<Scheme, 8> allSchemes = {
    Scheme::native, Scheme::nomad,  Scheme::memtis,   Scheme::hemem,
    Scheme::osSkew, Scheme::hwStatic, Scheme::pipmFull, Scheme::localOnly,
};

/** All schemes including the extra ablations. */
constexpr std::array<Scheme, 9> allSchemesExtended = {
    Scheme::native,   Scheme::nomad,    Scheme::memtis,
    Scheme::hemem,    Scheme::osSkew,   Scheme::hwStatic,
    Scheme::pipmFull, Scheme::localOnly, Scheme::pipmNaive,
};

constexpr std::string_view
toString(Scheme s)
{
    switch (s) {
      case Scheme::native: return "native";
      case Scheme::nomad: return "nomad";
      case Scheme::memtis: return "memtis";
      case Scheme::hemem: return "hemem";
      case Scheme::osSkew: return "os-skew";
      case Scheme::hwStatic: return "hw-static";
      case Scheme::pipmFull: return "pipm";
      case Scheme::localOnly: return "local-only";
      case Scheme::pipmNaive: return "pipm-naive";
    }
    return "?";
}

/** Inverse of toString over allSchemesExtended; nullopt when unknown. */
constexpr std::optional<Scheme>
schemeFromString(std::string_view name)
{
    for (Scheme s : allSchemesExtended) {
        if (toString(s) == name)
            return s;
    }
    return std::nullopt;
}

/** Does the scheme migrate whole pages through the OS (GIM remapping)? */
constexpr bool
usesOsMigration(Scheme s)
{
    return s == Scheme::nomad || s == Scheme::memtis || s == Scheme::hemem ||
           s == Scheme::osSkew;
}

/** Does the scheme use PIPM's partial/incremental migration machinery? */
constexpr bool
usesPipmMechanism(Scheme s)
{
    return s == Scheme::pipmFull || s == Scheme::hwStatic ||
           s == Scheme::pipmNaive;
}

} // namespace pipm

#endif // PIPM_SIM_SCHEME_HH
