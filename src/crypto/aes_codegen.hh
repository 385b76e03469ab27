/**
 * @file
 * Compiles OpenSSL-0.9.8-style table-based AES decryption into the
 * simulator's mini-ISA, so the victim "enclave" really executes the
 * table lookups of Figure 8a against tables resident in its simulated
 * memory.
 *
 * Layout discipline follows the paper's two observations (§4.4): the
 * Td0..Td3 tables and the rk array live on *different pages*, so an rk
 * access can be the replay handle and a Td0 access the pivot; and each
 * table is 16 cache lines, the granularity of Figure 11.
 *
 * Byte-order note: the reference code loads big-endian 32-bit state
 * words (GETU32).  The mini-ISA's Ld32 is little-endian, so the
 * harness pre-stores the GETU32 values of the ciphertext into the
 * input buffer; the table lookups and the leaked line indices are
 * identical to the reference either way.
 */

#ifndef USCOPE_CRYPTO_AES_CODEGEN_HH
#define USCOPE_CRYPTO_AES_CODEGEN_HH

#include <cstdint>

#include "common/types.hh"
#include "cpu/program.hh"
#include "crypto/aes.hh"
#include "os/kernel.hh"

namespace uscope::crypto
{

/** Where an AES victim's data lives in its virtual address space. */
struct AesVictimLayout
{
    VAddr td0 = 0;    ///< 1 KiB table, own page.
    VAddr td1 = 0;
    VAddr td2 = 0;
    VAddr td3 = 0;
    VAddr td4 = 0;    ///< Inverse s-box table, own page.
    VAddr rk = 0;     ///< Round keys, own page (the replay handles).
    VAddr input = 0;  ///< 4 state words (GETU32 of the ciphertext).
    VAddr output = 0; ///< 4 plaintext words.
    unsigned rounds = 0;

    /** VA of one table by index 0..4. */
    VAddr tableVa(unsigned table) const;
};

/**
 * Allocate the victim's AES data regions (one page each) and copy in
 * the decryption tables and the expanded decryption key.
 *
 * Note the deliberate asymmetry of the SGX model: the kernel loads the
 * enclave image (tables and key) *before* the harness seals the pages
 * with Kernel::declareEnclave, just as SGX measures pages in at
 * enclave build time and locks them afterwards.
 */
AesVictimLayout setupAesVictim(os::Kernel &kernel, os::Pid pid,
                               const AesKey &dec_key);

/** Store a ciphertext block into the victim's input buffer. */
void loadCiphertext(os::Kernel &kernel, os::Pid pid,
                    const AesVictimLayout &layout,
                    const std::uint8_t ct[16]);

/** Read the 16-byte result from the victim's output buffer. */
void readPlaintext(os::Kernel &kernel, os::Pid pid,
                   const AesVictimLayout &layout, std::uint8_t out[16]);

/**
 * Emit the full (unrolled) decryption: initial whitening, rounds-1
 * inner rounds in the exact lookup order of Figure 8a, and the Td4
 * final round, ending in Halt.
 */
cpu::Program buildAesDecryptProgram(const AesVictimLayout &layout);

} // namespace uscope::crypto

#endif // USCOPE_CRYPTO_AES_CODEGEN_HH
