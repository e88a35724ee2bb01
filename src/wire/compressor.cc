#include "src/wire/compressor.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "src/common/check.h"
#include "src/wire/varint.h"

namespace rpcscope {

namespace {

constexpr uint8_t kStoredBlock = 0;
constexpr uint8_t kLzBlock = 1;
constexpr size_t kMinMatch = 4;
constexpr size_t kMaxOffset = 65535;
constexpr size_t kHashBits = 15;
constexpr size_t kHashSize = size_t{1} << kHashBits;
// Decompression copies whole 8- and 16-byte chunks that may end past the last
// byte produced; the output buffer always keeps this much room after it.
constexpr size_t kWildSlack = 16;

// MatchLength's countr_zero finds the first differing byte of two native
// loads, which is the lowest-addressed one only on a little-endian host.
static_assert(std::endian::native == std::endian::little,
              "Ratel's word-at-a-time match extension assumes a little-endian host");

inline uint32_t HashFour(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return (v * 2654435761u) >> (32 - kHashBits);
}

inline uint64_t Load64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

// Writes the bytes PutVarint64 would append at `dst`; returns the end.
inline uint8_t* PutVarintRaw(uint8_t* dst, uint64_t value) {
  while (value >= 0x80) {
    *dst++ = static_cast<uint8_t>(value | 0x80);
    value >>= 7;
  }
  *dst++ = static_cast<uint8_t>(value);
  return dst;
}

// Length of the common prefix of `a` and `b`, at most `limit`.
inline size_t MatchLength(const uint8_t* a, const uint8_t* b, size_t limit) {
  size_t len = 0;
  for (; len + 8 <= limit; len += 8) {
    const uint64_t diff = Load64(a + len) ^ Load64(b + len);
    if (diff != 0) {
      return len + static_cast<size_t>(std::countr_zero(diff)) / 8;
    }
  }
  while (len < limit && a[len] == b[len]) {
    ++len;
  }
  return len;
}

void WriteStoredBlock(const std::vector<uint8_t>& input, std::vector<uint8_t>& out) {
  out.clear();
  out.reserve(input.size() + 10);
  out.push_back(kStoredBlock);
  PutVarint64(out, input.size());
  out.insert(out.end(), input.begin(), input.end());
}

}  // namespace

void RatelCompress(const std::vector<uint8_t>& input, RatelScratch& scratch,
                   std::vector<uint8_t>& out) {
  const size_t n = input.size();
  if (n < kMinMatch + 4) {
    WriteStoredBlock(input, out);
    return;
  }

  // A slot belongs to this call only if it is >= base: it holds base + pos,
  // and every slot from an earlier call is below the base this call got,
  // because base advances by n + 1 per call. Reuse therefore costs no clear
  // until base would wrap, when the table is zeroed and base restarts at 1.
  RPCSCOPE_CHECK_LT(n, size_t{UINT32_MAX} - 1) << "Ratel positions are 32-bit";
  if (scratch.slots.size() != kHashSize || scratch.base == 0 ||
      uint64_t{scratch.base} + n + 1 > UINT32_MAX) {
    scratch.slots.assign(kHashSize, 0);
    scratch.base = 1;
  }
  const uint32_t base = scratch.base;
  scratch.base = static_cast<uint32_t>(base + n + 1);
  uint32_t* const slots = scratch.slots.data();
  const uint8_t* const data = input.data();

  // Worst case per (literal run r, match of length L >= 4) token pair is
  // r + r/64 + L/64 + 5 bytes, i.e. under 5 output bytes per 4 input bytes,
  // plus an 11-byte header and the final literal run's length varint.
  out.resize(n + n / 4 + n / 32 + 16);
  uint8_t* const begin = out.data();
  uint8_t* dst = begin;
  *dst++ = kLzBlock;
  dst = PutVarintRaw(dst, n);

  size_t pos = 0;
  size_t literal_start = 0;
  auto flush_literals = [&](size_t end) {
    const size_t run = end - literal_start;
    dst = PutVarintRaw(dst, run << 1);  // LSB 0 => literal run.
    std::memcpy(dst, data + literal_start, run);
    dst += run;
  };

  while (pos + kMinMatch <= n) {
    const uint32_t h = HashFour(data + pos);
    const uint32_t slot = slots[h];
    slots[h] = base + static_cast<uint32_t>(pos);
    const size_t cand = slot - base;  // Meaningful only when slot >= base.
    if (slot >= base && pos - cand <= kMaxOffset &&
        std::memcmp(data + cand, data + pos, kMinMatch) == 0) {
      const size_t len = kMinMatch + MatchLength(data + cand + kMinMatch, data + pos + kMinMatch,
                                                 n - pos - kMinMatch);
      flush_literals(pos);
      dst = PutVarintRaw(dst, ((len - kMinMatch) << 1) | 1);  // LSB 1 => match.
      dst = PutVarintRaw(dst, pos - cand);
      // Insert hash entries inside the match so later data can reference it.
      const size_t insert_end = std::min(pos + len, n - kMinMatch);
      for (size_t i = pos + 1; i < insert_end; ++i) {
        slots[HashFour(data + i)] = base + static_cast<uint32_t>(i);
      }
      pos += len;
      literal_start = pos;
    } else {
      ++pos;
    }
  }
  flush_literals(n);
  out.resize(static_cast<size_t>(dst - begin));

  if (out.size() >= n + 1 + VarintSize(n)) {
    // Incompressible: fall back to a stored block.
    WriteStoredBlock(input, out);
  }
}

std::vector<uint8_t> RatelCompress(const std::vector<uint8_t>& input) {
  RatelScratch scratch;
  std::vector<uint8_t> out;
  RatelCompress(input, scratch, out);
  return out;
}

Status RatelDecompress(const std::vector<uint8_t>& block, std::vector<uint8_t>& out) {
  // `out` holds exactly the bytes produced so far whenever this returns.
  size_t produced = 0;
  auto fail = [&](Status status) {
    out.resize(produced);
    return status;
  };
  if (block.empty()) {
    return fail(InvalidArgumentError("empty block"));
  }
  const uint8_t kind = block[0];
  size_t pos = 1;
  uint64_t original_size;
  if (!GetVarint64(block, pos, original_size)) {
    return fail(InternalError("corrupt block header"));
  }
  // The declared size is attacker-controlled: cap it absolutely, allocate
  // conservatively, and let the per-token bounds below keep the output from
  // ever exceeding the declaration.
  constexpr uint64_t kMaxBlockBytes = uint64_t{1} << 30;
  if (original_size > kMaxBlockBytes) {
    return fail(InvalidArgumentError("declared size exceeds the 1 GiB block limit"));
  }

  if (kind == kStoredBlock) {
    if (block.size() - pos != original_size) {
      return fail(InternalError("stored block size mismatch"));
    }
    out.assign(block.begin() + static_cast<int64_t>(pos), block.end());
    return Status::Ok();
  }
  if (kind != kLzBlock) {
    return fail(InvalidArgumentError("unknown block kind"));
  }

  // The buffer starts at no more than 1 MiB (so a tiny block declaring 1 GiB
  // cannot force a large allocation) and doubles, capped at the declared
  // size, whenever a token needs more room.
  const size_t declared = static_cast<size_t>(original_size);
  out.resize(std::min<size_t>(declared, size_t{1} << 20) + kWildSlack);
  uint8_t* dst = out.data();
  auto make_room = [&](size_t bytes) {
    if (produced + bytes + kWildSlack > out.size()) {
      const size_t room = out.size() - kWildSlack;
      out.resize(std::min(declared, std::max(room * 2, produced + bytes)) + kWildSlack);
      dst = out.data();
    }
  };
  const uint8_t* const in = block.data();

  while (pos < block.size()) {
    uint64_t token;
    if (!GetVarint64(block, pos, token)) {
      return fail(InternalError("corrupt token"));
    }
    if ((token & 1) == 0) {
      const uint64_t run = token >> 1;
      if (pos + run > block.size() || produced + run > original_size) {
        return fail(InternalError("literal run overflows block"));
      }
      make_room(run);
      if (run <= 16 && pos + 16 <= block.size()) {
        std::memcpy(dst + produced, in + pos, 16);
      } else {
        std::memcpy(dst + produced, in + pos, run);
      }
      pos += run;
      produced += run;
    } else {
      const uint64_t len = (token >> 1) + kMinMatch;
      uint64_t offset;
      if (!GetVarint64(block, pos, offset)) {
        return fail(InternalError("corrupt match offset"));
      }
      if (offset == 0 || offset > produced) {
        return fail(InternalError("match offset out of range"));
      }
      if (produced + len > original_size) {
        return fail(InternalError("match overflows declared size"));
      }
      make_room(len);
      uint8_t* const to = dst + produced;
      const uint8_t* const from = to - offset;
      if (offset >= 8) {
        // Each 8-byte chunk reads only bytes already written.
        for (size_t i = 0; i < len; i += 8) {
          std::memcpy(to + i, from + i, 8);
        }
      } else {
        // Overlapping match (RLE-style): byte at a time.
        for (size_t i = 0; i < len; ++i) {
          to[i] = from[i];
        }
      }
      produced += len;
    }
  }
  if (produced != original_size) {
    return fail(InternalError("decompressed size mismatch"));
  }
  out.resize(produced);
  return Status::Ok();
}

Result<std::vector<uint8_t>> RatelDecompress(const std::vector<uint8_t>& block) {
  std::vector<uint8_t> out;
  Status status = RatelDecompress(block, out);
  if (!status.ok()) {
    return status;
  }
  return out;
}

double CompressionRatio(size_t original, size_t compressed) {
  if (original == 0) {
    return 1.0;
  }
  return static_cast<double>(compressed) / static_cast<double>(original);
}

}  // namespace rpcscope
