#include "rt/faults.h"

#include <cstdio>
#include <cstdlib>

namespace dcfb::rt {

const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
      case FaultKind::None:
        return "none";
      case FaultKind::Drop:
        return "drop";
      case FaultKind::Delay:
        return "delay";
      case FaultKind::Corrupt:
        return "corrupt";
      case FaultKind::Backpressure:
        return "backpressure";
    }
    return "?";
}

namespace {

Error
specError(std::string_view spec, std::string why)
{
    Error err(ErrorKind::Fault, "bad --inject spec: " + std::move(why));
    err.with("spec", std::string(spec))
        .with("syntax", "<kind>[:key=value[,key=value]...]")
        .with("kinds", "drop | delay | corrupt | backpressure | none")
        .with("keys", "rate=<0..1>  cycles=<delay cycles>  seed=<uint>");
    return err;
}

} // namespace

Expected<FaultPlan>
parseFaultPlan(std::string_view spec)
{
    FaultPlan plan;

    std::string_view kind = spec;
    std::string_view opts;
    if (auto colon = spec.find(':'); colon != std::string_view::npos) {
        kind = spec.substr(0, colon);
        opts = spec.substr(colon + 1);
        if (opts.empty())
            return specError(spec, "trailing ':' without any key=value");
    }

    if (kind == "none" || kind == "off")
        plan.kind = FaultKind::None;
    else if (kind == "drop")
        plan.kind = FaultKind::Drop;
    else if (kind == "delay")
        plan.kind = FaultKind::Delay;
    else if (kind == "corrupt")
        plan.kind = FaultKind::Corrupt;
    else if (kind == "backpressure")
        plan.kind = FaultKind::Backpressure;
    else
        return specError(spec,
                         "unknown fault kind '" + std::string(kind) + "'");

    while (!opts.empty()) {
        std::string_view item = opts;
        if (auto comma = opts.find(','); comma != std::string_view::npos) {
            item = opts.substr(0, comma);
            opts = opts.substr(comma + 1);
        } else {
            opts = {};
        }
        auto eq = item.find('=');
        if (eq == std::string_view::npos || eq == 0 ||
            eq + 1 == item.size()) {
            return specError(spec, "expected key=value, got '" +
                                       std::string(item) + "'");
        }
        std::string_view key = item.substr(0, eq);
        std::string value(item.substr(eq + 1));
        char *end = nullptr;
        if (key == "rate") {
            double rate = std::strtod(value.c_str(), &end);
            if (end != value.c_str() + value.size() || rate < 0.0 ||
                rate > 1.0) {
                return specError(spec, "rate must be a number in [0,1], "
                                       "got '" + value + "'");
            }
            plan.rate = rate;
        } else if (key == "cycles") {
            std::uint64_t cycles = std::strtoull(value.c_str(), &end, 10);
            if (end != value.c_str() + value.size() || cycles == 0) {
                return specError(spec, "cycles must be a positive integer, "
                                       "got '" + value + "'");
            }
            plan.delayCycles = cycles;
        } else if (key == "seed") {
            std::uint64_t seed = std::strtoull(value.c_str(), &end, 10);
            if (end != value.c_str() + value.size()) {
                return specError(spec, "seed must be an unsigned integer, "
                                       "got '" + value + "'");
            }
            plan.seed = seed;
        } else {
            return specError(spec,
                             "unknown key '" + std::string(key) + "'");
        }
    }
    return plan;
}

std::string
faultPlanSpec(const FaultPlan &plan)
{
    if (plan.kind == FaultKind::None)
        return "none";
    std::string out = faultKindName(plan.kind);
    // %g-style trimming without locale surprises: print the rate with up
    // to 6 significant digits and strip trailing zeros.
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", plan.rate);
    out += ":rate=";
    out += buf;
    if (plan.kind == FaultKind::Delay) {
        out += ",cycles=";
        out += std::to_string(plan.delayCycles);
    }
    out += ",seed=";
    out += std::to_string(plan.seed);
    return out;
}

} // namespace dcfb::rt
