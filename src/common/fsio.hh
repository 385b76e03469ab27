/**
 * @file
 * Durable filesystem primitives shared by every layer that persists
 * state: campaign checkpoints and reports (src/exp), the service
 * daemon's shard manifests, and the observability trace files
 * (src/obs).  Moved here from exp/checkpoint so obs can use them
 * without depending on the experiment layer (the same exp -> common
 * promotion the JSON library went through).
 */

#ifndef USCOPE_COMMON_FSIO_HH
#define USCOPE_COMMON_FSIO_HH

#include <string>

namespace uscope
{

/**
 * Atomically AND durably replace @p path: write to `<path>.tmp`,
 * fsync the tmp file, rename over the destination, then fsync the
 * parent directory.  On POSIX the rename is atomic within a
 * directory, so concurrent readers — and a campaign resuming after a
 * kill — see either the old content or the new, never a prefix; the
 * two fsyncs extend that guarantee to *power loss*, not just process
 * death: without them the rename can reach disk before the data (the
 * classic ext4 zero-length-file hazard), or the rename itself can be
 * lost with the directory update still in the page cache.  The
 * campaign service's shard-reassignment correctness rides on this —
 * a manifest a worker was told exists must actually be readable after
 * the machine comes back.  Throws SimFatal on any I/O failure;
 * filesystems that cannot fsync a directory (EINVAL/ENOTSUP) degrade
 * to the old atomic-only behavior with a warning.
 */
void writeFileAtomic(const std::string &path, const std::string &content);

/**
 * @p name as one path component: every byte but an ASCII letter,
 * digit, `-` or `_` becomes `_`, and an empty name becomes
 * `campaign`.  It names durable checkpoint directories, so its bytes
 * must not change.
 */
std::string sanitizeFileName(const std::string &name);

/**
 * fsync a directory so a rename inside it survives power loss.  Some
 * filesystems refuse to fsync directories; that degrades durability,
 * not atomicity, so it warns instead of failing the caller.
 */
void fsyncDirectory(const std::string &dir);

} // namespace uscope

#endif // USCOPE_COMMON_FSIO_HH
