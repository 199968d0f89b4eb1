#pragma once

// Runtime SIMD dispatch: which instruction-set extensions this *host* can
// execute, which per-extension kernel translation units this *binary* was
// built with, and the load-resolved best of their intersection.
//
// The lane abstraction in simd/vec.hpp is compile-time: each translation
// unit sees only the VecD specializations its own -m flags enable. Before
// this module, the widest lane type was therefore welded to the build box's
// flags (-march=native), so a shipped binary could not use AVX2 on one host
// and SSE2 on another. Now the trial kernel is compiled once per extension
// (src/core/kernel_ext_*.cpp, each with exactly its own -mavx2/-mavx512f/…
// flags and nothing wider) and the extension actually executed is a load
// time decision made here:
//
//     runnable = detected_extensions() ∩ compiled_extensions()
//     best     = ARE_SIMD_EXT override when runnable, else widest runnable
//
// Detection uses cpuid on x86-64 (including the XCR0 OS-support check for
// AVX state — a kernel that does not save YMM/ZMM registers must not be
// offered AVX2/AVX-512) and is a constant on AArch64 (NEON is baseline).
// The pure parsing/selection functions are exposed separately so unit
// tests can drive them with synthetic register values.
//
// Every result is cached after first use; dispatch_refresh_for_testing()
// re-reads the environment for tests that flip ARE_SIMD_EXT in-process.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace are::simd {

/// The dispatchable extensions, ordered narrow to wide within each
/// architecture. The one lane-type enum of the library: "auto" is not a
/// member but an empty std::optional<Extension>, which
/// core::resolve_simd_extension resolves through best_extension().
enum class Extension : std::uint8_t {
  kScalar = 0,
  kSse2,
  kAvx2,
  kAvx512,
  kNeon,
};

inline constexpr std::size_t kNumExtensions = 5;

/// Bitmask over Extension (1u << static_cast<int>(e)). kScalar is always a
/// member of every mask this module returns.
using ExtensionMask = std::uint32_t;

constexpr ExtensionMask mask_of(Extension extension) noexcept {
  return ExtensionMask{1} << static_cast<int>(extension);
}

constexpr bool mask_has(ExtensionMask mask, Extension extension) noexcept {
  return (mask & mask_of(extension)) != 0;
}

std::string_view name_of(Extension extension) noexcept;
std::optional<Extension> extension_from_name(std::string_view name) noexcept;

/// Hardware double lanes of the extension (1/2/4/8/2). A property of the
/// ISA, not of this build — valid even for extensions not compiled in.
std::size_t lanes_of(Extension extension) noexcept;

/// Comma-separated names of the mask's members, widest last ("scalar,sse2,
/// avx2"). For notes, /statusz, and list-engines.
std::string describe_mask(ExtensionMask mask);

// --- Pure logic (unit-testable, no host or process state) -------------------

/// Decodes a cpuid/xgetbv register set into the supported-extension mask.
/// Callers pass the real registers (detected_extensions) or synthetic ones
/// (tests). Bits follow the Intel SDM: leaf1_edx[26]=SSE2,
/// leaf1_ecx[27]=OSXSAVE, leaf1_ecx[28]=AVX, leaf7_ebx[5]=AVX2,
/// leaf7_ebx[16]=AVX-512F; xcr0[2:1]=YMM state, xcr0[7:5]=ZMM state.
ExtensionMask extensions_from_cpuid(std::uint32_t leaf1_ecx, std::uint32_t leaf1_edx,
                                    std::uint32_t leaf7_ebx, std::uint64_t xcr0) noexcept;

/// The selection rule behind best_extension(): the override when present
/// and runnable, else the widest member of `runnable`. Writes one human
/// sentence into `why` (never null) naming what decided — the override, the
/// cpuid cap, or the compiled-in cap.
Extension choose_best(ExtensionMask detected, ExtensionMask compiled,
                      std::optional<Extension> override_ext, std::string* why);

// --- Host/process state (cached after first use) ----------------------------

/// Extensions this host's CPU (and OS state-saving support) can execute.
ExtensionMask detected_extensions() noexcept;

/// Extensions whose kernel translation unit is linked into this binary
/// (scalar always; the rest per the ARE_KERNEL_TU_* build configuration).
ExtensionMask compiled_extensions() noexcept;

/// detected ∩ compiled — what dispatch may actually select.
ExtensionMask runnable_extensions() noexcept;

/// Parsed ARE_SIMD_EXT override: the named extension when it parses AND is
/// runnable; std::nullopt otherwise (unset, unknown name, or not runnable —
/// an operator typo degrades to auto selection, surfaced via
/// best_extension_reason(), instead of killing every run at load).
std::optional<Extension> env_override() noexcept;

/// The load-resolved extension auto executes: env override when runnable,
/// else the widest runnable extension.
Extension best_extension() noexcept;

/// One sentence explaining best_extension()'s choice ("ARE_SIMD_EXT=sse2
/// override", "widest of cpuid ∩ compiled-in", "cpuid caps at avx2; avx512
/// kernel present but host lacks it", …).
std::string best_extension_reason();

/// Drops every cached result (detection, override, best) so the next call
/// re-reads cpuid and the environment. Test hook for suites that setenv
/// ARE_SIMD_EXT mid-process; production code resolves once at load.
void dispatch_refresh_for_testing() noexcept;

}  // namespace are::simd
