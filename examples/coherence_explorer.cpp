/**
 * @file
 * Coherence explorer: drives MultiHostSystem directly through the PIPM
 * lifecycle of one page — the majority vote, incremental migration on
 * writeback (case 1), local service from migrated lines (case 3),
 * inter-host pull-back (cases 2/5/6) and revocation — printing the state
 * transitions as they happen. Also runs the explicit-state model checker
 * to show the protocol-safety story of §5.1.4.
 */

#include <iostream>

#include "common/config.hh"
#include "sim/system.hh"
#include "verify/checker.hh"
#include "workloads/workload.hh"

namespace
{

using namespace pipm;

MemRef
ref(std::uint64_t page, unsigned line, MemOp op)
{
    MemRef r;
    r.shared = true;
    r.page = page;
    r.lineIdx = static_cast<std::uint8_t>(line);
    r.op = op;
    return r;
}

} // namespace

int
main()
{
    using namespace pipm;

    SystemConfig cfg = testConfig();
    cfg.numHosts = 2;
    cfg.trackValues = true;   // the walk-through prints data tokens
    FootprintWorkload workload(256 * pageBytes, 16 * pageBytes);
    MultiHostSystem sys(cfg, Scheme::pipmFull, workload, 1);
    PipmState &pipm = *sys.pipmState();

    const std::uint64_t page = 5;
    const PageFrame cxl_page =
        pageOf(pageBase(sys.space().sharedFrame(page)));
    Cycles now = 0;

    std::cout << "=== 1. Majority vote (threshold "
              << cfg.pipm.migrationThreshold << ") ===\n";
    // Write three thresholds' worth of lines: the vote fires on the
    // 8th access; the rest keep recharging the page's local counter
    // (each post-promotion local miss bumps it, saturating the 4-bit
    // counter at 15) and widen the migrated-line set for step 4.
    for (unsigned i = 0; i < 3 * cfg.pipm.migrationThreshold; ++i) {
        sys.access(0, 0, ref(page, i, MemOp::write), now, 0x100 + i);
        now += 5'000;
        const GlobalRemapEntry &g = pipm.globalEntry(cxl_page);
        std::cout << "  host0 writes line " << i
                  << ": candidate=h" << int(g.candHost)
                  << " counter=" << int(g.counter)
                  << (pipm.migratedHostOf(cxl_page) != invalidHost
                          ? "  -> PROMOTED"
                          : "")
                  << '\n';
    }

    std::cout << "\n=== 2. Incremental migration (case 1: writebacks) "
                 "===\n";
    // Stream unrelated pages to force LLC evictions of the M lines.
    for (std::uint64_t p = 64; p < 256; ++p) {
        for (unsigned l = 0; l < linesPerPage; l += 4) {
            sys.access(0, 0, ref(p, l, MemOp::read), now);
            now += 200;
        }
    }
    std::cout << "  lines migrated into host0 local DRAM: "
              << pipm.linesIn.value() << " (page bitmap has "
              << pipm.migratedLinesOn(0) << " lines)\n";

    std::cout << "\n=== 3. Local service from migrated lines (case 3) "
                 "===\n";
    unsigned shown = 0;
    for (unsigned l = 0; l < linesPerPage && shown < 4; ++l) {
        if (!pipm.lineMigrated(0, cxl_page, l))
            continue;
        ++shown;
        const std::uint64_t before = sys.localServedMisses.value();
        const AccessResult r0 =
            sys.access(0, 0, ref(page, l, MemOp::read), now);
        now += 1'000;
        std::cout << "  host0 reads line " << l << ": data=0x" << std::hex
                  << r0.data << std::dec << " latency=" << r0.latency
                  << " cycles ("
                  << (sys.localServedMisses.value() > before
                          ? "served from LOCAL DRAM"
                          : "cache hit")
                  << ")\n";
    }

    std::cout << "\n=== 4. Inter-host access migrates lines back (cases "
                 "2/5/6) and drains the local counter ===\n";
    bool revoked = false;
    for (unsigned round = 0; round < 32 && !revoked; ++round) {
        for (unsigned l = 0; l < linesPerPage && !revoked; ++l) {
            if (!pipm.lineMigrated(0, cxl_page, l))
                continue;
            const AccessResult r1 =
                sys.access(1, 0, ref(page, l, MemOp::read), now);
            now += 2'000;
            std::cout << "  host1 reads line " << l << ": data=0x"
                      << std::hex << r1.data << std::dec
                      << ", line migrated back; ";
            if (pipm.hasLocalEntry(0, cxl_page)) {
                std::cout << "page still promoted\n";
            } else {
                std::cout << "local counter hit 0 -> REVOKED\n";
                revoked = true;
            }
        }
        if (!pipm.hasLocalEntry(0, cxl_page))
            revoked = true;
    }
    std::cout << "  totals: lines in " << pipm.linesIn.value()
              << ", lines back " << pipm.linesBack.value()
              << ", revocations " << pipm.revocations.value() << '\n';

    sys.checkInvariants();
    std::cout << "\n=== 5. System-wide invariants hold; running the "
                 "protocol model checker ===\n";
    for (unsigned hosts = 2; hosts <= 3; ++hosts) {
        const CheckResult result = checkProtocol(hosts);
        std::cout << "  " << hosts << " hosts: "
                  << (result.ok ? "SAFE" : result.violation) << " ("
                  << result.statesExplored << " states, "
                  << result.transitions << " transitions)\n";
    }
    return 0;
}
