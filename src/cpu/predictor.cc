#include "cpu/predictor.hh"

#include "common/bitfield.hh"
#include "common/logging.hh"

namespace uscope::cpu
{

BranchPredictor::BranchPredictor(unsigned entries)
{
    if (!isPowerOf2(entries))
        fatal("BranchPredictor: %u entries not a power of two", entries);
    table_.assign(entries, 1);  // Weakly not-taken.
}

void
BranchPredictor::flush()
{
    ++stats_.flushes;
    for (auto &counter : table_)
        counter = 1;
}

void
BranchPredictor::prime(std::uint64_t pc, bool taken)
{
    table_[indexOf(pc)] = taken ? 3 : 0;
}

unsigned
BranchPredictor::counter(std::uint64_t pc) const
{
    return table_[indexOf(pc)];
}

} // namespace uscope::cpu
