/**
 * @file
 * Field-by-field CoreCounters comparison for the core equivalence tests:
 * an empty string means every counter matches, otherwise it names each
 * field that differs with both values.
 */

#pragma once

#include <sstream>
#include <string>

#include "sim/stats.hpp"

namespace mimoarch {

inline std::string
counterDiff(const CoreCounters &a, const CoreCounters &b)
{
    std::ostringstream out;
    const auto field = [&](const char *name, uint64_t x, uint64_t y) {
        if (x != y)
            out << name << ": " << x << " vs " << y << "; ";
    };
    field("cycles", a.cycles, b.cycles);
    field("committed", a.committed, b.committed);
    field("fetched", a.fetched, b.fetched);
    field("dispatched", a.dispatched, b.dispatched);
    field("issued", a.issued, b.issued);
    for (size_t i = 0; i < kNumOpClasses; ++i)
        field("issuedByClass", a.issuedByClass[i], b.issuedByClass[i]);
    field("branchLookups", a.branchLookups, b.branchLookups);
    field("branchMispredicts", a.branchMispredicts, b.branchMispredicts);
    field("fetchStallCycles", a.fetchStallCycles, b.fetchStallCycles);
    field("robFullStallCycles", a.robFullStallCycles, b.robFullStallCycles);
    field("lsqFullStallCycles", a.lsqFullStallCycles, b.lsqFullStallCycles);
    field("robOccupancySum", a.robOccupancySum, b.robOccupancySum);
    field("l1dAccesses", a.l1dAccesses, b.l1dAccesses);
    field("l1dMisses", a.l1dMisses, b.l1dMisses);
    field("l1iAccesses", a.l1iAccesses, b.l1iAccesses);
    field("l1iMisses", a.l1iMisses, b.l1iMisses);
    field("l2Accesses", a.l2Accesses, b.l2Accesses);
    field("l2Misses", a.l2Misses, b.l2Misses);
    field("memAccesses", a.memAccesses, b.memAccesses);
    field("cacheWritebacks", a.cacheWritebacks, b.cacheWritebacks);
    return out.str();
}

} // namespace mimoarch
