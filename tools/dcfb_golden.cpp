/**
 * @file
 * Golden-corpus generator: simulates every cell in
 * `tests/golden_cells.h` and writes one RunResult JSON per cell into
 * the output directory (default `tests/golden/`).
 *
 * Run through `scripts/update_golden.py`, which refuses to regenerate
 * over a dirty git tree -- the corpus must only ever change in a commit
 * that consciously accepts new results (see DESIGN.md section 9).
 */

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>

#include "../tests/golden_cells.h"
#include "sim/report.h"

int
main(int argc, char **argv)
{
    using namespace dcfb;
    std::string dir = argc > 1 ? argv[1] : "tests/golden";
    const auto cells = golden::cells();
    std::printf("writing %zu golden cells to %s/\n", cells.size(),
                dir.c_str());
    for (const auto &cell : cells) {
        auto t0 = std::chrono::steady_clock::now();
        sim::RunResult result =
            sim::simulate(golden::config(cell), golden::windows());
        double secs = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
        std::string path = dir + "/" + golden::fileName(cell);
        std::ofstream out(path, std::ios::out | std::ios::trunc);
        if (!out.is_open()) {
            std::fprintf(stderr, "cannot open %s\n", path.c_str());
            return 1;
        }
        out << sim::toJson(result).dump(2) << '\n';
        std::printf("  %-44s cycles=%-8llu %.2fs\n",
                    golden::fileName(cell).c_str(),
                    static_cast<unsigned long long>(result.cycles), secs);
    }
    return 0;
}
