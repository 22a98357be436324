#include "timing/machine_config.hh"

namespace cdvm::timing
{

MachineConfig
MachineConfig::of(const engine::EngineConfig &cfg, bool warm)
{
    const engine::ColdTier &t = engine::coldTier(cfg.cold);
    MachineConfig m;
    m.name = cfg.name.starts_with("vm.") ? "VM." + cfg.name.substr(3)
                                         : cfg.name;
    if (warm)
        m.name += ".warm";
    m.cold = t.mode;
    m.hasSbt = cfg.enableSbt;
    m.costs.bbtNativePerInsn = t.bbtNativePerInsn;
    m.costs.bbtCyclesPerInsn = t.bbtCyclesPerInsn;
    m.hotThreshold = t.hotThreshold;
    m.coldCpiFactor = t.coldCpiFactor;
    m.frontendX86Decoders = t.frontendX86Decoders;
    m.xltBusyFraction = t.xltBusyFraction;
    m.asyncTranslators = cfg.asyncTranslators;
    m.warmStart = warm;
    return m;
}

MachineConfig
MachineConfig::refSuperscalar()
{
    MachineConfig m;
    m.name = "Ref: superscalar";
    m.cold = ColdMode::Native;
    m.hasSbt = false;
    m.costs.bbtNativePerInsn = 0.0; // no translation
    m.costs.bbtCyclesPerInsn = 0.0;
    m.coldCpiFactor = 1.0;
    m.frontendX86Decoders = true; // always-on hardware x86 decoders
    return m;
}

std::vector<MachineConfig>
MachineConfig::table2()
{
    return {refSuperscalar(), of(engine::EngineConfig::vmSoft(), false),
            of(engine::EngineConfig::vmBe(), false),
            of(engine::EngineConfig::vmFe(), false)};
}

} // namespace cdvm::timing
