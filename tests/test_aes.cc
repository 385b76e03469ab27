/**
 * @file
 * AES substrate correctness: FIPS-197 vectors, round trips for all
 * key sizes, access-trace consistency, and — critically for the §4.4
 * attack — the generated mini-ISA decryption producing bit-identical
 * results to the native reference when run on the simulated machine.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <set>

#include "attack/aes_attack.hh"
#include "common/random.hh"
#include "crypto/aes.hh"
#include "crypto/aes_codegen.hh"
#include "os/machine.hh"

using namespace uscope;

namespace
{

std::array<std::uint8_t, 16>
hexBlock(const char *hex)
{
    std::array<std::uint8_t, 16> out{};
    for (unsigned i = 0; i < 16; ++i) {
        unsigned byte = 0;
        std::sscanf(hex + 2 * i, "%2x", &byte);
        out[i] = static_cast<std::uint8_t>(byte);
    }
    return out;
}

} // namespace

TEST(Aes, Fips197Aes128Vector)
{
    // FIPS-197 Appendix C.1.
    const auto key = hexBlock("000102030405060708090a0b0c0d0e0f");
    const auto pt = hexBlock("00112233445566778899aabbccddeeff");
    const auto expect = hexBlock("69c4e0d86a7b0430d8cdb78070b4c55a");

    crypto::AesKey enc(key.data(), 128, false);
    std::uint8_t ct[16];
    crypto::encryptBlock(enc, pt.data(), ct);
    EXPECT_EQ(0, std::memcmp(ct, expect.data(), 16));

    crypto::AesKey dec(key.data(), 128, true);
    std::uint8_t back[16];
    crypto::decryptBlock(dec, ct, back);
    EXPECT_EQ(0, std::memcmp(back, pt.data(), 16));
}

TEST(Aes, Fips197Aes192And256Vectors)
{
    // FIPS-197 Appendix C.2 / C.3.
    const auto pt = hexBlock("00112233445566778899aabbccddeeff");
    {
        std::array<std::uint8_t, 24> key{};
        for (unsigned i = 0; i < 24; ++i)
            key[i] = static_cast<std::uint8_t>(i);
        const auto expect =
            hexBlock("dda97ca4864cdfe06eaf70a0ec0d7191");
        crypto::AesKey enc(key.data(), 192, false);
        std::uint8_t ct[16];
        crypto::encryptBlock(enc, pt.data(), ct);
        EXPECT_EQ(0, std::memcmp(ct, expect.data(), 16));
        EXPECT_EQ(enc.rounds(), 12u);
    }
    {
        std::array<std::uint8_t, 32> key{};
        for (unsigned i = 0; i < 32; ++i)
            key[i] = static_cast<std::uint8_t>(i);
        const auto expect =
            hexBlock("8ea2b7ca516745bfeafc49904b496089");
        crypto::AesKey enc(key.data(), 256, false);
        std::uint8_t ct[16];
        crypto::encryptBlock(enc, pt.data(), ct);
        EXPECT_EQ(0, std::memcmp(ct, expect.data(), 16));
        EXPECT_EQ(enc.rounds(), 14u);
    }
}

TEST(Aes, RoundTripAllKeySizes)
{
    std::array<std::uint8_t, 32> key{};
    for (unsigned i = 0; i < 32; ++i)
        key[i] = static_cast<std::uint8_t>(i * 7 + 3);
    std::array<std::uint8_t, 16> pt{};
    for (unsigned i = 0; i < 16; ++i)
        pt[i] = static_cast<std::uint8_t>(i * 13 + 1);

    for (unsigned bits : {128u, 192u, 256u}) {
        crypto::AesKey enc(key.data(), bits, false);
        crypto::AesKey dec(key.data(), bits, true);
        std::uint8_t ct[16];
        std::uint8_t back[16];
        crypto::encryptBlock(enc, pt.data(), ct);
        crypto::decryptBlock(dec, ct, back);
        EXPECT_EQ(0, std::memcmp(back, pt.data(), 16))
            << "key size " << bits;
    }
}

TEST(Aes, TraceRecordsFourIndicesPerTablePerRound)
{
    const auto key = hexBlock("000102030405060708090a0b0c0d0e0f");
    const auto ct = hexBlock("69c4e0d86a7b0430d8cdb78070b4c55a");
    crypto::AesKey dec(key.data(), 128, true);
    const crypto::DecAccessTrace trace =
        crypto::traceDecryption(dec, ct.data());

    ASSERT_EQ(trace.indices.size(), 10u);
    for (unsigned r = 0; r < 9; ++r) {
        for (unsigned table = 0; table < 4; ++table)
            EXPECT_EQ(trace.indices[r][table].size(), 4u);
        EXPECT_TRUE(trace.indices[r][4].empty());
    }
    // Final round: 16 inverse-sbox lookups in slot 4.
    EXPECT_EQ(trace.indices[9][4].size(), 16u);
}

TEST(Aes, MiniIsaDecryptionMatchesReference)
{
    const auto key = hexBlock("000102030405060708090a0b0c0d0e0f");
    const auto pt = hexBlock("00112233445566778899aabbccddeeff");
    crypto::AesKey enc(key.data(), 128, false);
    crypto::AesKey dec(key.data(), 128, true);
    std::uint8_t ct[16];
    crypto::encryptBlock(enc, pt.data(), ct);

    os::Machine machine;
    auto &kernel = machine.kernel();
    const os::Pid pid = kernel.createProcess("aes-victim");
    const auto layout = crypto::setupAesVictim(kernel, pid, dec);
    crypto::loadCiphertext(kernel, pid, layout, ct);

    auto program = std::make_shared<const cpu::Program>(
        crypto::buildAesDecryptProgram(layout));
    kernel.startOnContext(pid, 0, program);
    ASSERT_TRUE(machine.runUntilHalted(0, 5'000'000));

    std::uint8_t out[16];
    crypto::readPlaintext(kernel, pid, layout, out);
    EXPECT_EQ(0, std::memcmp(out, pt.data(), 16));
}

TEST(Aes, MiniIsaTouchesExactlyTheTracedLines)
{
    const auto key = hexBlock("8899aabbccddeeff0011223344556677");
    const auto pt = hexBlock("0123456789abcdeffedcba9876543210");
    crypto::AesKey enc(key.data(), 128, false);
    crypto::AesKey dec(key.data(), 128, true);
    std::uint8_t ct[16];
    crypto::encryptBlock(enc, pt.data(), ct);

    os::Machine machine;
    auto &kernel = machine.kernel();
    const os::Pid pid = kernel.createProcess("aes-victim");
    const auto layout = crypto::setupAesVictim(kernel, pid, dec);
    crypto::loadCiphertext(kernel, pid, layout, ct);

    // Evict the whole Td1 table, run the decryption, and check the
    // set of Td1 lines left in the cache equals the traced ground
    // truth — the physical effect Figure 11 measures.
    const PAddr td1_pa = *kernel.translate(pid, layout.td1);
    kernel.primeRange(td1_pa, 1024);

    auto program = std::make_shared<const cpu::Program>(
        crypto::buildAesDecryptProgram(layout));
    kernel.startOnContext(pid, 0, program);
    ASSERT_TRUE(machine.runUntilHalted(0, 5'000'000));

    const auto trace = crypto::traceDecryption(dec, ct);
    std::set<unsigned> expected_lines;
    for (const auto &round : trace.indices)
        for (std::uint8_t index : round[1])
            expected_lines.insert(crypto::tableLineOf(index));

    std::set<unsigned> cached_lines;
    for (unsigned line = 0; line < 16; ++line) {
        if (machine.hierarchy().peekLevel(td1_pa + line * lineSize) !=
            mem::HitLevel::Dram) {
            cached_lines.insert(line);
        }
    }
    EXPECT_EQ(cached_lines, expected_lines);
}

TEST(Aes, Round1Td1LinesMatchTheTrace)
{
    // The attack's ground truth reads four bytes instead of tracing a
    // whole decryption; both must name the same Td1 lines.
    os::Machine machine;
    const std::uint8_t key[16] = {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae,
                                  0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88,
                                  0x09, 0xcf, 0x4f, 0x3c};
    const attack::AesEnclave enclave(machine.kernel(), key, 128);
    Rng rng(20260);
    for (int n = 0; n < 1000; ++n) {
        std::uint8_t ct[16];
        for (std::uint8_t &byte : ct)
            byte = static_cast<std::uint8_t>(rng.below(256));
        const crypto::DecAccessTrace trace =
            crypto::traceDecryption(enclave.decKey, ct);
        std::set<unsigned> traced;
        for (const std::uint8_t index : trace.indices[0][1])
            traced.insert(crypto::tableLineOf(index));
        ASSERT_EQ(enclave.round1Td1Lines(ct), traced) << "ciphertext " << n;
    }
}
