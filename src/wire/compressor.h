// LZ-style block compressor ("Ratel": an LZ4-family format).
//
// Compression is the single largest RPC cycle-tax component in the study
// (3.1% of all fleet cycles, Fig. 20b), so the stack compresses real bytes
// with a real algorithm: greedy LZ with a 64 KiB window whose match finder
// is a single-probe hash table (one candidate per 4-byte hash, no chains),
// emitting (literal-run, match) token pairs. Ratios and byte counts feed both the
// latency model (bytes on the wire) and the cycle model (cycles/byte).
#ifndef RPCSCOPE_SRC_WIRE_COMPRESSOR_H_
#define RPCSCOPE_SRC_WIRE_COMPRESSOR_H_

#include <cstdint>
#include <vector>

#include "src/common/status.h"

namespace rpcscope {

// Reusable compression state. The hash table is 128 KiB (32K 32-bit slots);
// hot paths (the codec encodes a frame per RPC attempt) hold one of these and
// reuse it so per-message compression is allocation-free in steady state.
// Each call owns the positions [base, base + n) of the 32-bit slot space: a
// slot holds base + position, and base advances by n + 1 per call, so slots
// left by earlier calls are all below the current base and read as empty.
// Reuse therefore costs no clear; only when base would wrap is the table
// zeroed and base restarted at 1.
struct RatelScratch {
  std::vector<uint32_t> slots;
  uint32_t base = 0;
};

// Compresses `input` into a self-describing block, replacing the contents of
// `out`. Always succeeds for inputs under 4 GiB (positions are 32-bit); for
// incompressible input the output is |input| + small header (a stored block).
// `scratch` is reset internally and may be reused across calls.
void RatelCompress(const std::vector<uint8_t>& input, RatelScratch& scratch,
                   std::vector<uint8_t>& out);

// Convenience wrapper allocating fresh scratch and output (cold paths, tests).
std::vector<uint8_t> RatelCompress(const std::vector<uint8_t>& input);

// Decompresses a block produced by RatelCompress into `out` (contents
// replaced). Fails on corrupt input.
[[nodiscard]] Status RatelDecompress(const std::vector<uint8_t>& block,
                                     std::vector<uint8_t>& out);

// Convenience wrapper returning a fresh vector (cold paths, tests).
[[nodiscard]] Result<std::vector<uint8_t>> RatelDecompress(const std::vector<uint8_t>& block);

// Ratio helper: compressed size / original size (1.0 for empty input).
double CompressionRatio(size_t original, size_t compressed);

}  // namespace rpcscope

#endif  // RPCSCOPE_SRC_WIRE_COMPRESSOR_H_
