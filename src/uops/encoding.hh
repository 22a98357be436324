/**
 * @file
 * Binary encoding of the fusible micro-op ISA.
 *
 * Following the fusible instruction set of Hu et al. [HPCA'06], the ISA
 * has a 16-bit compact format for the most common two-address ALU
 * operations and 32-bit formats carrying either three register
 * specifiers or two register specifiers plus a short immediate. Large
 * immediates and the 32-bit x86-level branch targets are carried in a
 * 16-bit or 32-bit extension word, so one micro-op encodes into 2, 4,
 * 6 or 8 bytes. The fusible bit lives in every format and marks a
 * micro-op fused with its successor (a macro-op head).
 *
 * Encodings round-trip exactly: decode(encode(v)) reproduces every
 * semantic field (the x86pc provenance tag is side metadata kept in the
 * translation descriptor, not in the encoding).
 */

#ifndef CDVM_UOPS_ENCODING_HH
#define CDVM_UOPS_ENCODING_HH

#include <span>
#include <vector>

#include "uops/uop.hh"

namespace cdvm::uops
{

/** Maximum encoded size of one micro-op (32-bit word + 32-bit ext). */
constexpr unsigned MAX_UOP_BYTES = 8;

/**
 * Encode one micro-op into out (at least MAX_UOP_BYTES writable).
 * @return bytes written (2, 4, 6 or 8).
 */
unsigned encodeOne(const Uop &u, u8 *out);

/**
 * Decode one micro-op from the byte window.
 * @return bytes consumed, or 0 if the window is malformed/truncated.
 */
unsigned decodeOne(std::span<const u8> window, Uop &out);

/** Encode a whole sequence. */
std::vector<u8> encode(std::span<const Uop> v);

/** Encode a whole sequence into out, replacing its contents (its
 *  capacity is kept, so a reused buffer stops allocating). */
void encode(std::span<const Uop> v, std::vector<u8> &out);

/**
 * Decode a whole buffer (must contain exactly a sequence of micro-ops).
 * @return true on success.
 */
bool decodeAll(std::span<const u8> bytes, UopVec &out);

} // namespace cdvm::uops

#endif // CDVM_UOPS_ENCODING_HH
