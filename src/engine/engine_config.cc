#include "engine/engine_config.hh"

#include <charconv>
#include <optional>

#include "common/logging.hh"

namespace cdvm::engine
{

namespace
{

/** Largest N of an async<N> token: a context is a host thread. */
constexpr unsigned MAX_ASYNC_TRANSLATORS = 64;

// One row per ColdKind, in enum order: coldTier() indexes it. A tier
// that never translates prices Delta_BBT at zero.
constexpr ColdTier COLD_TIERS[] = {
    {ColdKind::Interpret, "interp", ColdMode::Interpret, 0.0, 0.0,
     params::INTERP_SLOWDOWN, false, params::INTERP_HOT_THRESHOLD, 0.0},
    // Dual-mode decoders run cold x86 like the reference superscalar
    // (Section 5.2), with the frontend decoders on.
    {ColdKind::HardwareX86Mode, "x86", ColdMode::X86Direct, 0.0, 0.0,
     1.0, true, params::HOT_THRESHOLD, 0.0},
    {ColdKind::SoftwareBbt, "soft", ColdMode::BbtCode,
     params::BBT_NATIVE_PER_INSN, params::BBT_CYCLES_PER_INSN,
     params::BBT_VS_SBT_CPI, false, params::HOT_THRESHOLD, 0.0},
    // The XLTx86 unit is busy XLT_LATENCY_CYCLES of the ~20 cycles the
    // HAloop spends per instruction.
    {ColdKind::XltAssistedBbt, "xlt", ColdMode::BbtCode,
     params::BBT_ASSIST_NATIVE_PER_INSN,
     params::BBT_ASSIST_CYCLES_PER_INSN, params::BBT_VS_SBT_CPI, false,
     params::HOT_THRESHOLD,
     params::XLT_LATENCY_CYCLES / params::BBT_ASSIST_CYCLES_PER_INSN},
    {ColdKind::TemplateBbt, "tmpl", ColdMode::BbtCode,
     params::BBT_TMPL_NATIVE_PER_INSN, params::BBT_TMPL_XLATE,
     params::BBT_VS_SBT_CPI, false, params::HOT_THRESHOLD, 0.0},
};

/** A paper machine's name for one cold x detector pair. */
struct SpecAlias
{
    const char *name;
    ColdKind cold;
    DetectorKind detector;
};

constexpr SpecAlias ALIASES[] = {
    {"vm.soft", ColdKind::SoftwareBbt, DetectorKind::SoftwareCounters},
    {"vm.fe", ColdKind::HardwareX86Mode, DetectorKind::Bbb},
    {"vm.be", ColdKind::XltAssistedBbt, DetectorKind::SoftwareCounters},
    {"vm.dual", ColdKind::XltAssistedBbt, DetectorKind::Bbb},
    {"vm.interp", ColdKind::Interpret, DetectorKind::SoftwareCounters},
};

/** <cold>[+bbb][+async<N>]: the canonical spelling of a point. */
std::string
canonicalSpec(ColdKind cold, DetectorKind detector, unsigned async)
{
    std::string s = coldTier(cold).token;
    if (detector == DetectorKind::Bbb)
        s += "+bbb";
    if (async > 0)
        s += "+async" + std::to_string(async);
    return s;
}

/** The cold tier, and for an alias the detector, a token names. */
std::optional<SpecAlias>
coldWord(std::string_view tok)
{
    for (const ColdTier &t : COLD_TIERS)
        if (tok == t.token)
            return SpecAlias{t.token, t.kind, DetectorKind::SoftwareCounters};
    for (const SpecAlias &a : ALIASES)
        if (tok == a.name)
            return a;
    return std::nullopt;
}

/** N of an async<N> token (the "async" prefix already stripped), or
 *  0 when it is not a count in 1..MAX_ASYNC_TRANSLATORS. */
unsigned
asyncCount(std::string_view digits)
{
    unsigned n = 0;
    const char *end = digits.data() + digits.size();
    const auto [stop, ec] = std::from_chars(digits.data(), end, n);
    return ec == std::errc() && stop == end && digits[0] != '0' &&
                   n <= MAX_ASYNC_TRANSLATORS
               ? n
               : 0;
}

} // namespace

std::span<const ColdTier>
coldTiers()
{
    return COLD_TIERS;
}

const ColdTier &
coldTier(ColdKind kind)
{
    return COLD_TIERS[static_cast<std::size_t>(kind)];
}

const char *
specErrorName(SpecError e)
{
    switch (e) {
      case SpecError::None: return "none";
      case SpecError::Empty: return "empty spec or token";
      case SpecError::UnknownToken: return "unknown token";
      case SpecError::NoCold: return "no cold tier";
      case SpecError::ColdTwice: return "cold tier given twice";
      case SpecError::DetectorTwice: return "detector given twice";
      case SpecError::AsyncTwice: return "async given twice";
      case SpecError::BadAsyncCount: return "bad async count";
    }
    return "?";
}

std::string
specGrammar()
{
    std::string s = "<cold|alias>[+bbb][+async<N>], N in 1.." +
                    std::to_string(MAX_ASYNC_TRANSLATORS) + "\n  cold:";
    for (const ColdTier &t : COLD_TIERS)
        s += std::string(" ") + t.token;
    s += "\n  aliases:";
    for (const SpecAlias &a : ALIASES)
        s += std::string(" ") + a.name + "=" +
             canonicalSpec(a.cold, a.detector, 0);
    return s;
}

SpecError
EngineConfig::parse(std::string_view spec, EngineConfig &out)
{
    EngineConfig c;
    unsigned colds = 0, bbbs = 0, asyncs = 0;
    for (std::string_view rest = spec;;) {
        const std::size_t plus = rest.find('+');
        const std::string_view tok = rest.substr(0, plus);
        if (tok.empty())
            return SpecError::Empty;
        if (tok == "bbb") {
            ++bbbs;
            c.detector = DetectorKind::Bbb;
        } else if (tok.starts_with("async")) {
            ++asyncs;
            c.asyncTranslators = asyncCount(tok.substr(5));
            if (c.asyncTranslators == 0)
                return SpecError::BadAsyncCount;
        } else if (std::optional<SpecAlias> w = coldWord(tok)) {
            ++colds;
            c.cold = w->cold;
            if (w->detector == DetectorKind::Bbb) {
                ++bbbs;
                c.detector = w->detector;
            }
        } else {
            return SpecError::UnknownToken;
        }
        if (plus == std::string_view::npos)
            break;
        rest.remove_prefix(plus + 1);
    }
    if (colds == 0)
        return SpecError::NoCold;
    if (colds > 1)
        return SpecError::ColdTwice;
    if (bbbs > 1)
        return SpecError::DetectorTwice;
    if (asyncs > 1)
        return SpecError::AsyncTwice;

    c.name = canonicalSpec(c.cold, c.detector, c.asyncTranslators);
    if (coldWord(spec))
        c.name = spec; // an alias (or a bare cold token) names itself
    out = std::move(c);
    return SpecError::None;
}

EngineConfig
EngineConfig::fromSpec(std::string_view spec)
{
    EngineConfig c;
    const SpecError err = parse(spec, c);
    if (err != SpecError::None)
        cdvm_panic("bad engine spec '%.*s': %s",
                   static_cast<int>(spec.size()), spec.data(),
                   specErrorName(err));
    return c;
}

EngineConfig EngineConfig::vmSoft() { return fromSpec("vm.soft"); }
EngineConfig EngineConfig::vmFe() { return fromSpec("vm.fe"); }
EngineConfig EngineConfig::vmBe() { return fromSpec("vm.be"); }
EngineConfig EngineConfig::vmDual() { return fromSpec("vm.dual"); }
EngineConfig EngineConfig::vmInterp() { return fromSpec("vm.interp"); }

} // namespace cdvm::engine
