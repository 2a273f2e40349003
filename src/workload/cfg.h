/**
 * @file
 * Synthetic server-program control-flow graph.
 *
 * The paper evaluates real server stacks (TPC-C on Oracle/DB2, SPECweb99,
 * CloudSuite).  We cannot run those, so we synthesize programs whose
 * *instruction-stream shape* matches what the paper's mechanisms react
 * to: multi-megabyte instruction footprints, deep call chains, biased
 * conditional branches, rarely-executed cold regions (error handling /
 * else-paths, Algorithm 1 in the paper), and a dominant discontinuity
 * branch per block (Fig. 7).
 *
 * A Program is a set of functions laid out contiguously in the code
 * segment.  Function 0 is the *driver*: an endless dispatch loop that
 * indirect-calls worker functions with Zipf popularity, mimicking a
 * request-processing loop.  Static call sites only call functions of a
 * strictly higher level, bounding call depth.
 */

#ifndef DCFB_WORKLOAD_CFG_H
#define DCFB_WORKLOAD_CFG_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "isa/encoding.h"
#include "workload/image.h"

namespace dcfb::workload {

/** Knobs that shape a synthetic workload (one set per server profile). */
struct WorkloadProfile
{
    std::string name = "generic";
    std::uint32_t numFunctions = 512;   //!< worker functions (excl. driver)
    std::uint32_t minBlocks = 3;        //!< basic blocks per function
    std::uint32_t maxBlocks = 12;
    std::uint32_t minInstrs = 4;        //!< instructions per basic block
    std::uint32_t maxInstrs = 16;
    double condProb = 0.45;    //!< block terminator: conditional branch
    double callProb = 0.18;    //!< block terminator: static call
    double jumpProb = 0.08;    //!< block terminator: jump over a cold region
    double coldGuardFrac = 0.4; //!< fraction of cond branches guarding cold code
    double takenBias = 0.95;   //!< dominant-direction probability
    double loopProb = 0.15;    //!< fraction of cond branches that loop back
    double zipfSkew = 0.6;     //!< driver call-popularity skew (0 = flat)
    double callSkew = 0.75;    //!< static call-site callee skew (0 = flat)
    std::uint32_t maxCallDepth = 4;  //!< static call-graph depth bound
    std::uint32_t driverBlocks = 8;  //!< dispatch-loop basic blocks
    double loadFrac = 0.22;    //!< body instruction mix
    double storeFrac = 0.10;
    std::uint64_t dataFootprint = 8ull << 20; //!< bytes of data touched
    bool variableLength = false; //!< build for the VL-ISA configuration
    std::uint64_t seed = 1;
};

/** Basic-block terminator classes. */
enum class TermKind : std::uint8_t {
    FallThrough,  //!< last instruction is a plain body instruction
    Cond,         //!< conditional branch (fall through or jump)
    Jump,         //!< unconditional jump
    Call,         //!< static direct call
    IndirectCall, //!< driver dispatch call (runtime-selected callee)
    Return,       //!< function return
};

/** One instruction: its PC is its block's start plus the lengths of the
 *  instructions before it. */
struct Instr
{
    std::uint8_t len = 0;
    isa::InstrKind kind = isa::InstrKind::Alu;
};
static_assert(sizeof(Instr) == 2);

/** One basic block after layout.  Every index names a Program record. */
struct BasicBlock
{
    Addr start = 0;                      //!< address of the first instruction
    double takenProb = 0.0;              //!< Cond: probability taken
    std::uint32_t firstInstr = 0;        //!< its first Program::instrs index
    std::uint32_t numInstrs = 0;
    std::uint32_t targetBlock = 0;       //!< Cond/Jump target (blocks index)
    std::uint32_t callee = 0;            //!< Call target (functions index)
    TermKind term = TermKind::FallThrough;
    bool cold = false;                   //!< deliberately rarely-executed
    std::uint32_t termOffset = 0;        //!< terminator's bytes past start

    std::uint32_t termInstr() const { return firstInstr + numInstrs - 1; }
    Addr termPc() const { return start + termOffset; }
};
static_assert(sizeof(BasicBlock) == 40);

/** One function after layout: a contiguous run of Program::blocks. */
struct Function
{
    Addr entry = 0;
    std::uint32_t level = 0;      //!< call-graph level (driver = 0)
    std::uint32_t firstBlock = 0;
    std::uint32_t numBlocks = 0;

    std::uint32_t endBlock() const { return firstBlock + numBlocks; }
    bool contains(std::uint32_t b) const { return b - firstBlock < numBlocks; }
};

/**
 * A fully-built synthetic program, laid out flat: functions own
 * contiguous block ranges and blocks own contiguous instruction ranges,
 * all in address order.
 */
struct Program
{
    WorkloadProfile profile;
    std::vector<Function> functions; //!< functions[0] is the driver
    std::vector<BasicBlock> blocks;
    std::vector<Instr> instrs;
    ProgramImage image;
    Addr codeBase = 0;
    Addr codeEnd = 0;
    Addr dataBase = 0;
    std::vector<std::uint32_t> driverTargets; //!< indirect-call candidates

    /** Code footprint in bytes (blocks actually emitted). */
    std::size_t codeBytes() const { return image.sizeBytes(); }
};

/**
 * Build a program from @p profile.  Deterministic for a given seed.
 */
Program buildProgram(const WorkloadProfile &profile);

} // namespace dcfb::workload

#endif // DCFB_WORKLOAD_CFG_H
