/* CRC-32 (reflected IEEE polynomial 0xEDB88320) by carry-less multiply
   folding: Gopal et al., "Fast CRC Computation for Generic Polynomials
   Using PCLMULQDQ Instruction", Intel, 2009.

   This file holds one pure kernel and its CPU probe, nothing else. The
   kernel reads a byte slice and returns the running CRC state; it never
   allocates, raises or calls back into OCaml. [Crc32.digest] (crc32.ml)
   decides when to call it, and its slicing-by-8 loop computes the same
   values on every target, so the tests check this file against it. */

#include <stdint.h>
#include <caml/mlvalues.h>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))

#include <emmintrin.h>
#include <smmintrin.h>
#include <wmmintrin.h>

#define CLMUL_TARGET __attribute__((target("pclmul,sse4.1")))

/* Fold constants for the reflected polynomial, each x^k mod P bit-reflected
   and shifted left by one (the paper's Appendix): k1/k2 fold 4x16 bytes
   across 64 bytes, k3/k4 fold 16 bytes across 16, k5 folds 96 bits to 64,
   and P' / mu are the polynomial and its quotient for the Barrett step. */
static const uint64_t k1k2[2] __attribute__((aligned(16))) = { 0x154442bd4ULL, 0x1c6e41596ULL };
static const uint64_t k3k4[2] __attribute__((aligned(16))) = { 0x1751997d0ULL, 0x0ccaa009eULL };
static const uint64_t k5k0[2] __attribute__((aligned(16))) = { 0x163cd6124ULL, 0 };
static const uint64_t poly_mu[2] __attribute__((aligned(16))) = { 0x1db710641ULL, 0x1f7011641ULL };

/* x * k folded 128 bits ahead: the low half times k's low word xor the
   high half times k's high word. */
CLMUL_TARGET static inline __m128i fold16(__m128i x, __m128i k)
{
  return _mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00), _mm_clmulepi64_si128(x, k, 0x11));
}

/* The running (pre-inverted) CRC state after [len] bytes at [p], from the
   state [crc]. Needs [len >= 64] and [len % 16 == 0]. */
CLMUL_TARGET static uint32_t clmul_fold(const uint8_t *p, intnat len, uint32_t crc)
{
  __m128i x1 = _mm_loadu_si128((const __m128i *)(p + 0));
  __m128i x2 = _mm_loadu_si128((const __m128i *)(p + 16));
  __m128i x3 = _mm_loadu_si128((const __m128i *)(p + 32));
  __m128i x4 = _mm_loadu_si128((const __m128i *)(p + 48));
  __m128i k = _mm_load_si128((const __m128i *)k1k2);
  __m128i mask32 = _mm_setr_epi32(-1, 0, -1, 0);
  __m128i t;

  x1 = _mm_xor_si128(x1, _mm_cvtsi32_si128((int)crc));
  p += 64;
  len -= 64;

  /* Four independent 128-bit lanes, each folded 64 bytes ahead. */
  while (len >= 64) {
    x1 = _mm_xor_si128(fold16(x1, k), _mm_loadu_si128((const __m128i *)(p + 0)));
    x2 = _mm_xor_si128(fold16(x2, k), _mm_loadu_si128((const __m128i *)(p + 16)));
    x3 = _mm_xor_si128(fold16(x3, k), _mm_loadu_si128((const __m128i *)(p + 32)));
    x4 = _mm_xor_si128(fold16(x4, k), _mm_loadu_si128((const __m128i *)(p + 48)));
    p += 64;
    len -= 64;
  }

  /* The four lanes into one, then the remaining 16-byte blocks. */
  k = _mm_load_si128((const __m128i *)k3k4);
  x1 = _mm_xor_si128(fold16(x1, k), x2);
  x1 = _mm_xor_si128(fold16(x1, k), x3);
  x1 = _mm_xor_si128(fold16(x1, k), x4);
  while (len >= 16) {
    x1 = _mm_xor_si128(fold16(x1, k), _mm_loadu_si128((const __m128i *)p));
    p += 16;
    len -= 16;
  }

  /* 128 bits to 64, then 64 to 32 (k4, then k5). */
  t = _mm_clmulepi64_si128(x1, k, 0x10);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), t);
  k = _mm_loadl_epi64((const __m128i *)k5k0);
  t = _mm_srli_si128(x1, 4);
  x1 = _mm_xor_si128(_mm_clmulepi64_si128(_mm_and_si128(x1, mask32), k, 0x00), t);

  /* Barrett reduction to the 32-bit remainder. */
  k = _mm_load_si128((const __m128i *)poly_mu);
  t = _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), k, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, mask32), k, 0x00);
  x1 = _mm_xor_si128(x1, t);
  return (uint32_t)_mm_extract_epi32(x1, 1);
}

static int clmul_probe(void)
{
  __builtin_cpu_init();
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
}

#else

/* No carry-less multiply kernel on this target: [Crc32] never calls the
   fold, and keeps to its slicing-by-8 loop. */
static uint32_t clmul_fold(const uint8_t *p, intnat len, uint32_t crc)
{
  (void)p;
  (void)len;
  return crc;
}

static int clmul_probe(void) { return 0; }

#endif

value asym_crc32_clmul_supported(value unit)
{
  (void)unit;
  return Val_bool(clmul_probe());
}

intnat asym_crc32_clmul_fold(value b, intnat pos, intnat len, intnat crc)
{
  return (intnat)clmul_fold((const uint8_t *)Bytes_val(b) + pos, len, (uint32_t)crc);
}

value asym_crc32_clmul_fold_byte(value b, value pos, value len, value crc)
{
  return Val_long(asym_crc32_clmul_fold(b, Long_val(pos), Long_val(len), Long_val(crc)));
}
