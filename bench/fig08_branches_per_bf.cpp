/**
 * @file
 * Figure 8: fraction of branches left uncovered as a function of the
 * number of branch slots in a branch footprint (BF).  Paper: four
 * byte-offsets per block cover almost all branches.
 */

#include <map>

#include "bench_common.h"
#include "workload/cfg.h"
#include "workload/trace.h"

int
main(int argc, char **argv)
{
    using namespace dcfb;
    bench::Harness h(argc, argv, "Fig. 8 - uncovered branches vs. branches per BF",
                  "4 branch slots per 64B block cover ~all branches");

    sim::Table table({"workload", "1", "2", "3", "4", "5"});
    for (const auto &name : bench::allWorkloads()) {
        // Weight blocks by execution: walk the trace and count branches
        // per executed cache block.
        auto program =
            workload::buildProgram(workload::serverProfile(name, true));
        std::map<Addr, std::map<Addr, bool>> branches; // block -> brs
        for (const auto &bb : program.blocks) {
            Addr pc = bb.start;
            for (std::uint32_t j = bb.firstInstr; j <= bb.termInstr(); ++j) {
                const workload::Instr in = program.instrs[j];
                if (isa::isBranch(in.kind))
                    branches[blockAlign(pc)][pc] = true;
                pc += in.len;
            }
        }
        workload::TraceWalker walker(program, 7);
        std::map<std::size_t, std::uint64_t> hist; // #branches -> count
        std::uint64_t total_branches = 0;
        Addr last_block = kInvalidAddr;
        for (int i = 0; i < 1000000; ++i) {
            auto e = walker.next();
            Addr block = blockAlign(e.pc);
            if (block == last_block)
                continue;
            last_block = block;
            std::size_t n = branches.count(block)
                ? branches[block].size()
                : 0;
            hist[n] += 1;
            total_branches += n;
        }
        std::vector<std::string> row{name};
        for (std::size_t slots = 1; slots <= 5; ++slots) {
            std::uint64_t uncovered = 0;
            for (const auto &[n, cnt] : hist) {
                if (n > slots)
                    uncovered += (n - slots) * cnt;
            }
            double frac = total_branches
                ? static_cast<double>(uncovered) /
                    static_cast<double>(total_branches)
                : 0.0;
            row.push_back(sim::Table::pct(frac));
        }
        table.addRow(row);
    }
    h.report(table, "Uncovered branches vs. branch slots per footprint");
    return 0;
}
