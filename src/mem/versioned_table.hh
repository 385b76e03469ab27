/**
 * @file
 * The copy-what-differs rule (DESIGN.md §17), written once for the
 * cache sets and the PhysMem page directory.
 */

#ifndef USCOPE_MEM_VERSIONED_TABLE_HH
#define USCOPE_MEM_VERSIONED_TABLE_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace uscope::mem
{

/**
 * A fresh id, unique across the process.  Each thread draws from a
 * private block of ids and refills it from one global counter, so the
 * hot path is a thread-local increment.  Id 0 is never drawn.
 */
inline std::uint64_t
freshVersion()
{
    constexpr std::uint64_t kBlock = 1u << 12;
    static std::atomic<std::uint64_t> nextBlock{1};
    thread_local std::uint64_t next = 0;
    thread_local std::uint64_t end = 0;
    if (next == end) {
        next = nextBlock.fetch_add(kBlock);
        end = next + kBlock;
    }
    return next++;
}

/**
 * One version of type @p Ver per entry (@p Empty: the entry holds
 * nothing), in leaves of 64 entries, and one id per leaf.  Equal
 * versions imply equal entries and equal leaf ids equal leaves,
 * across every table of the process: set() and touch() redraw the
 * leaf's id, copyFrom() adopts the source's, and id 0 is a leaf of
 * @p Empty entries.  The table starts empty and grows by whole
 * leaves, through cover() or to cover a copy's source; reads past it
 * see @p Empty.
 */
template <typename Ver, Ver Empty>
class VersionedTable
{
  public:
    static constexpr std::size_t kLeaf = 64;

    Ver operator[](std::size_t i) const
    {
        return i < ver_.size() ? ver_[i] : Empty;
    }

    /** Grow by whole leaves of @p Empty, at id 0, to cover @p n
     *  entries. */
    void cover(std::size_t n)
    {
        const std::size_t leaves = (n + kLeaf - 1) / kLeaf;
        if (leaves > leafId_.size()) {
            ver_.resize(leaves * kLeaf, Empty);
            leafId_.resize(leaves, 0);
        }
    }

    /** Covered entry @p i changed: give it version @p v and its leaf
     *  a fresh id. */
    void set(std::size_t i, Ver v)
    {
        ver_[i] = v;
        leafId_[i / kLeaf] = freshVersion();
    }

    /** As set(), for tables whose versions are drawn ids: entry @p i
     *  and its leaf share one fresh id. */
    void touch(std::size_t i)
    {
        const std::uint64_t id = freshVersion();
        ver_[i] = id;
        leafId_[i / kLeaf] = id;
    }

    /**
     * Become equal to @p src, skipping leaves whose ids match.  Each
     * entry whose version differs gets @p copy(i, theirs) while it
     * still holds its own, then adopts theirs.
     * @return The number of entries that differed.
     */
    template <typename CopyEntry>
    std::size_t copyFrom(const VersionedTable &src, CopyEntry &&copy)
    {
        cover(src.ver_.size());
        std::size_t copied = 0;
        for (std::size_t leaf = 0; leaf < leafId_.size(); ++leaf) {
            // A leaf past src's end is at id 0, all Empty.
            const bool inSrc = leaf < src.leafId_.size();
            const std::uint64_t theirs = inSrc ? src.leafId_[leaf] : 0;
            if (leafId_[leaf] == theirs)
                continue;
            const std::size_t first = leaf * kLeaf;
            for (std::size_t i = first; i < first + kLeaf; ++i) {
                const Ver v = inSrc ? src.ver_[i] : Empty;
                if (ver_[i] == v)
                    continue;
                copy(i, v);
                ver_[i] = v;
                ++copied;
            }
            leafId_[leaf] = theirs;
        }
        return copied;
    }

  private:
    std::vector<Ver> ver_;
    std::vector<std::uint64_t> leafId_;
};

} // namespace uscope::mem

#endif // USCOPE_MEM_VERSIONED_TABLE_HH
