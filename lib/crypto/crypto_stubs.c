/* ChaCha20 (RFC 8439) and SHA-256 (FIPS 180-4) compute kernels.

   Each primitive has a portable C99 kernel: byte-wise little-/big-endian
   loads and stores, no intrinsics. On x86-64 built with GCC or Clang, two
   more kernels sit next to them: ChaCha20 on AVX2 (eight blocks per
   iteration) and SHA-256 on the SHA extensions (SHA-NI). A constructor
   picks each primitive's kernel once, from CPUID, when the program loads;
   [caml_treaty_chacha20_xor] and [caml_treaty_sha256_blocks] then call the
   chosen one. Only those two kernels are compiled for the extra instruction
   sets (a target attribute on each function), so the library runs on any
   x86-64 and on other targets, where the portable kernels are the only
   ones. Every kernel of a primitive gives the same bytes bit for bit.

   Every stub is [@@noalloc]: they neither allocate nor raise, and the
   OCaml wrappers in chacha20.ml and sha256.ml validate every size and
   region before calling, so the C side only ever sees in-bounds regions. */

#include <stdint.h>
#include <string.h>
#include <caml/mlvalues.h>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define TREATY_X86 1
#include <cpuid.h>
#include <immintrin.h>
#endif

static uint32_t load_le32(const unsigned char *p)
{
  return (uint32_t)p[0] | ((uint32_t)p[1] << 8) | ((uint32_t)p[2] << 16)
         | ((uint32_t)p[3] << 24);
}

static void store_le32(unsigned char *p, uint32_t v)
{
  p[0] = (unsigned char)v;
  p[1] = (unsigned char)(v >> 8);
  p[2] = (unsigned char)(v >> 16);
  p[3] = (unsigned char)(v >> 24);
}

static uint32_t load_be32(const unsigned char *p)
{
  return ((uint32_t)p[0] << 24) | ((uint32_t)p[1] << 16)
         | ((uint32_t)p[2] << 8) | (uint32_t)p[3];
}

static void store_be32(unsigned char *p, uint32_t v)
{
  p[0] = (unsigned char)(v >> 24);
  p[1] = (unsigned char)(v >> 16);
  p[2] = (unsigned char)(v >> 8);
  p[3] = (unsigned char)v;
}

#define ROTL(v, n) (((v) << (n)) | ((v) >> (32 - (n))))
#define ROTR(v, n) (((v) >> (n)) | ((v) << (32 - (n))))

/* --- ChaCha20 ------------------------------------------------------------ */

#define QR(a, b, c, d)                                                       \
  a += b; d ^= a; d = ROTL(d, 16);                                           \
  c += d; b ^= c; b = ROTL(b, 12);                                           \
  a += b; d ^= a; d = ROTL(d, 8);                                            \
  c += d; b ^= c; b = ROTL(b, 7)

/* XOR the keystream from block st[12] into p[0 .. len), one 64-byte block
   at a time; st[12] wraps mod 2^32. */
static void chacha20_portable(uint32_t st[16], unsigned char *p, size_t len)
{
  uint32_t x[16];
  unsigned char ks[64];
  int i;

  while (len > 0) {
    size_t m = len < 64 ? len : 64;
    memcpy(x, st, sizeof x);
    for (i = 0; i < 10; i++) {
      QR(x[0], x[4], x[8], x[12]);
      QR(x[1], x[5], x[9], x[13]);
      QR(x[2], x[6], x[10], x[14]);
      QR(x[3], x[7], x[11], x[15]);
      QR(x[0], x[5], x[10], x[15]);
      QR(x[1], x[6], x[11], x[12]);
      QR(x[2], x[7], x[8], x[13]);
      QR(x[3], x[4], x[9], x[14]);
    }
    for (i = 0; i < 16; i++) store_le32(ks + 4 * i, x[i] + st[i]);
    for (size_t j = 0; j < m; j++) p[j] ^= ks[j];
    p += m;
    len -= m;
    st[12]++;
  }
}

/* The kernel caml_treaty_chacha20_xor runs: 0 portable, 1 AVX2. Set once,
   before main, like sha256_kernel below. */
static int chacha20_kernel = 0;

#ifdef TREATY_X86
/* The same keystream, eight blocks per iteration. Register x[i] holds state
   word i of blocks c .. c+7, one per 32-bit lane; the counter lanes wrap
   mod 2^32 each, as st[12]++ does. Whole 512-byte chunks are XORed in
   place; a final chunk of more than 64 bytes goes through a keystream
   buffer. Returns the bytes done, leaving a tail of at most 64 bytes (and
   st[12] at its block) for the portable kernel. */
__attribute__((target("avx2")))
static size_t chacha20_avx2(uint32_t st[16], unsigned char *p, size_t len)
{
  const __m256i rot16 = _mm256_setr_epi8(
      2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13,
      2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13);
  const __m256i rot8 = _mm256_setr_epi8(
      3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14,
      3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14);
  __m256i s[16], x[16];
  unsigned char ks[512];
  size_t done = 0;
  int i;

  for (i = 0; i < 16; i++) s[i] = _mm256_set1_epi32((int)st[i]);
  s[12] = _mm256_add_epi32(s[12], _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));

#define ROTV(v, n)                                                           \
  _mm256_or_si256(_mm256_slli_epi32((v), (n)), _mm256_srli_epi32((v), 32 - (n)))
/* QR on eight lanes. The rotations by 16 and 8 move whole bytes, so each
   is one byte shuffle. */
#define QRV(a, b, c, d)                                                      \
  a = _mm256_add_epi32(a, b);                                                \
  d = _mm256_shuffle_epi8(_mm256_xor_si256(d, a), rot16);                    \
  c = _mm256_add_epi32(c, d);                                                \
  b = _mm256_xor_si256(b, c); b = ROTV(b, 12);                               \
  a = _mm256_add_epi32(a, b);                                                \
  d = _mm256_shuffle_epi8(_mm256_xor_si256(d, a), rot8);                     \
  c = _mm256_add_epi32(c, d);                                                \
  b = _mm256_xor_si256(b, c); b = ROTV(b, 7)
/* Words g .. g+3 of blocks k and k+4 into x[g+k], k = 0..3: within each
   128-bit half, a 4x4 transpose of 32-bit lanes. */
#define TRANSPOSE4(g)                                                        \
  do {                                                                       \
    __m256i t0 = _mm256_unpacklo_epi32(x[g], x[g + 1]);                      \
    __m256i t1 = _mm256_unpackhi_epi32(x[g], x[g + 1]);                      \
    __m256i t2 = _mm256_unpacklo_epi32(x[g + 2], x[g + 3]);                  \
    __m256i t3 = _mm256_unpackhi_epi32(x[g + 2], x[g + 3]);                  \
    x[g] = _mm256_unpacklo_epi64(t0, t2);                                    \
    x[g + 1] = _mm256_unpackhi_epi64(t0, t2);                                \
    x[g + 2] = _mm256_unpacklo_epi64(t1, t3);                                \
    x[g + 3] = _mm256_unpackhi_epi64(t1, t3);                                \
  } while (0)

  while (len - done > 64) {
    unsigned char *out = p + done;
    int whole = len - done >= 512;
    for (i = 0; i < 16; i++) x[i] = s[i];
    for (i = 0; i < 10; i++) {
      QRV(x[0], x[4], x[8], x[12]);
      QRV(x[1], x[5], x[9], x[13]);
      QRV(x[2], x[6], x[10], x[14]);
      QRV(x[3], x[7], x[11], x[15]);
      QRV(x[0], x[5], x[10], x[15]);
      QRV(x[1], x[6], x[11], x[12]);
      QRV(x[2], x[7], x[8], x[13]);
      QRV(x[3], x[4], x[9], x[14]);
    }
    for (i = 0; i < 16; i++) x[i] = _mm256_add_epi32(x[i], s[i]);
    TRANSPOSE4(0); TRANSPOSE4(4); TRANSPOSE4(8); TRANSPOSE4(12);
    /* Block k is the low halves of x[k], x[4+k], x[8+k], x[12+k]; block
       k+4 the high halves. */
    for (i = 0; i < 4; i++) {
      __m256i v[4], *dst;
      int j;
      v[0] = _mm256_permute2x128_si256(x[i], x[4 + i], 0x20);
      v[1] = _mm256_permute2x128_si256(x[8 + i], x[12 + i], 0x20);
      v[2] = _mm256_permute2x128_si256(x[i], x[4 + i], 0x31);
      v[3] = _mm256_permute2x128_si256(x[8 + i], x[12 + i], 0x31);
      for (j = 0; j < 4; j++) {
        size_t o = 64 * (size_t)(i + 4 * (j >> 1)) + 32 * (size_t)(j & 1);
        if (whole) {
          dst = (__m256i *)(out + o);
          _mm256_storeu_si256(dst, _mm256_xor_si256(_mm256_loadu_si256(dst), v[j]));
        }
        else _mm256_storeu_si256((__m256i *)(ks + o), v[j]);
      }
    }
    if (!whole) {
      size_t m = len - done, j;
      for (j = 0; j + 32 <= m; j += 32) {
        __m256i *dst = (__m256i *)(out + j);
        _mm256_storeu_si256(
            dst, _mm256_xor_si256(_mm256_loadu_si256(dst),
                                  _mm256_loadu_si256((const __m256i *)(ks + j))));
      }
      for (; j < m; j++) out[j] ^= ks[j];
      return len;
    }
    s[12] = _mm256_add_epi32(s[12], _mm256_set1_epi32(8));
    st[12] += 8;
    done += 512;
  }
#undef ROTV
#undef QRV
#undef TRANSPOSE4
  return done;
}
#endif

/* XOR the keystream starting at block [counter] (mod 2^32) into
   buf[off .. off+len). key is 32 bytes, nonce 12. [kernel] as
   chacha20_kernel; the caller asks for AVX2 only where the CPU has it. */
static void chacha20_xor(int kernel, value key, value nonce, value counter,
                         value buf, value off, value len)
{
  const unsigned char *k = (const unsigned char *)String_val(key);
  const unsigned char *n = (const unsigned char *)String_val(nonce);
  unsigned char *p = Bytes_val(buf) + Long_val(off);
  size_t remaining = (size_t)Long_val(len);
  uint32_t st[16];
  int i;

  st[0] = 0x61707865; st[1] = 0x3320646e; st[2] = 0x79622d32; st[3] = 0x6b206574;
  for (i = 0; i < 8; i++) st[4 + i] = load_le32(k + 4 * i);
  st[12] = (uint32_t)Long_val(counter);
  for (i = 0; i < 3; i++) st[13 + i] = load_le32(n + 4 * i);

#ifdef TREATY_X86
  if (kernel == 1) {
    size_t done = chacha20_avx2(st, p, remaining);
    p += done;
    remaining -= done;
  }
#else
  (void)kernel;
#endif
  chacha20_portable(st, p, remaining);
}

value caml_treaty_chacha20_xor(value key, value nonce, value counter,
                               value buf, value off, value len)
{
  chacha20_xor(chacha20_kernel, key, nonce, counter, buf, off, len);
  return Val_unit;
}

value caml_treaty_chacha20_xor_byte(value *argv, int argn)
{
  (void)argn;
  return caml_treaty_chacha20_xor(argv[0], argv[1], argv[2], argv[3], argv[4],
                                  argv[5]);
}

value caml_treaty_chacha20_kernel(value unit)
{
  (void)unit;
  return Val_int(chacha20_kernel);
}

/* Each kernel by name, for the tests that check both against a reference
   on every host. chacha20.ml calls the AVX2 one only where the dispatcher
   chose it; a build without the AVX2 kernel runs the portable one. */
value caml_treaty_chacha20_xor_portable(value key, value nonce, value counter,
                                        value buf, value off, value len)
{
  chacha20_xor(0, key, nonce, counter, buf, off, len);
  return Val_unit;
}

value caml_treaty_chacha20_xor_portable_byte(value *argv, int argn)
{
  (void)argn;
  return caml_treaty_chacha20_xor_portable(argv[0], argv[1], argv[2], argv[3],
                                           argv[4], argv[5]);
}

value caml_treaty_chacha20_xor_avx2(value key, value nonce, value counter,
                                    value buf, value off, value len)
{
  chacha20_xor(1, key, nonce, counter, buf, off, len);
  return Val_unit;
}

value caml_treaty_chacha20_xor_avx2_byte(value *argv, int argn)
{
  (void)argn;
  return caml_treaty_chacha20_xor_avx2(argv[0], argv[1], argv[2], argv[3],
                                       argv[4], argv[5]);
}

/* --- SHA-256 ------------------------------------------------------------- */

static const uint32_t K[64] = {
  0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
  0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
  0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
  0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
  0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
  0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
  0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
  0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
  0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
  0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
  0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

/* Absorb [n] whole 64-byte blocks from p into the state s. */
static void sha256_portable(uint32_t s[8], const unsigned char *p, long n)
{
  uint32_t w[64];
  int i;

  for (; n > 0; n--, p += 64) {
    uint32_t a = s[0], b = s[1], c = s[2], d = s[3];
    uint32_t e = s[4], f = s[5], g = s[6], hh = s[7];
    for (i = 0; i < 16; i++) w[i] = load_be32(p + 4 * i);
    for (i = 16; i < 64; i++) {
      uint32_t w15 = w[i - 15], w2 = w[i - 2];
      uint32_t s0 = ROTR(w15, 7) ^ ROTR(w15, 18) ^ (w15 >> 3);
      uint32_t s1 = ROTR(w2, 17) ^ ROTR(w2, 19) ^ (w2 >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    for (i = 0; i < 64; i++) {
      uint32_t t1 = hh + (ROTR(e, 6) ^ ROTR(e, 11) ^ ROTR(e, 25))
                    + ((e & f) ^ (~e & g)) + K[i] + w[i];
      uint32_t t2 = (ROTR(a, 2) ^ ROTR(a, 13) ^ ROTR(a, 22))
                    + ((a & b) ^ (a & c) ^ (b & c));
      hh = g; g = f; f = e; e = d + t1;
      d = c; c = b; b = a; a = t1 + t2;
    }
    s[0] += a; s[1] += b; s[2] += c; s[3] += d;
    s[4] += e; s[5] += f; s[6] += g; s[7] += hh;
  }
}

/* The kernel caml_treaty_sha256_blocks runs: 0 portable, 1 SHA-NI. Set
   once, before main; CPUID traps to the hypervisor on a VM, so it is never
   asked again. */
static int sha256_kernel = 0;

#ifdef TREATY_X86
/* The same compression on the SHA extensions. sha256rnds2 runs two rounds
   on the state split as ABEF / CDGH; sha256msg1/msg2 extend the message
   schedule four words at a time. */
__attribute__((target("sha,ssse3,sse4.1")))
static void sha256_shani(uint32_t s[8], const unsigned char *p, long n)
{
  const __m128i bswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  __m128i abef, cdgh, t, w0, w1, w2, w3;
  int j;

  /* s = A..H, lane 0 first: shuffle into ABEF and CDGH, lane 3 first. */
  t = _mm_shuffle_epi32(_mm_loadu_si128((const __m128i *)s), 0xB1);
  cdgh = _mm_shuffle_epi32(_mm_loadu_si128((const __m128i *)(s + 4)), 0x1B);
  abef = _mm_alignr_epi8(t, cdgh, 8);
  cdgh = _mm_blend_epi16(cdgh, t, 0xF0);

/* Rounds 4i .. 4i+3 on schedule words w. */
#define RNDS4(w, i)                                                          \
  do {                                                                       \
    __m128i wk = _mm_add_epi32(                                              \
        (w), _mm_loadu_si128((const __m128i *)(K + 4 * (i))));               \
    cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);                            \
    abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));   \
  } while (0)
/* With a..d = W[t-16 .. t-1], replace a by W[t .. t+3]. */
#define SCHED(a, b, c, d)                                                    \
  a = _mm_sha256msg2_epu32(                                                  \
      _mm_add_epi32(_mm_sha256msg1_epu32(a, b), _mm_alignr_epi8(d, c, 4)), d)

  for (; n > 0; n--, p += 64) {
    __m128i abef0 = abef, cdgh0 = cdgh;
    w0 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)p), bswap);
    w1 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 16)), bswap);
    w2 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 32)), bswap);
    w3 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 48)), bswap);
    RNDS4(w0, 0); RNDS4(w1, 1); RNDS4(w2, 2); RNDS4(w3, 3);
    for (j = 4; j < 16; j += 4) {
      SCHED(w0, w1, w2, w3); RNDS4(w0, j);
      SCHED(w1, w2, w3, w0); RNDS4(w1, j + 1);
      SCHED(w2, w3, w0, w1); RNDS4(w2, j + 2);
      SCHED(w3, w0, w1, w2); RNDS4(w3, j + 3);
    }
    abef = _mm_add_epi32(abef, abef0);
    cdgh = _mm_add_epi32(cdgh, cdgh0);
  }
#undef RNDS4
#undef SCHED

  t = _mm_shuffle_epi32(abef, 0x1B);
  cdgh = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128((__m128i *)s, _mm_blend_epi16(t, cdgh, 0xF0));
  _mm_storeu_si128((__m128i *)(s + 4), _mm_alignr_epi8(cdgh, t, 8));
}

/* CPUID leaf 7 EBX bit 29 (SHA); leaf 1 ECX bits 9 (SSSE3) and 19 (SSE4.1). */
static int cpu_has_sha_ni(void)
{
  unsigned int a, b, c, d;
  if (!__get_cpuid(1, &a, &b, &c, &d)) return 0;
  if (!(c & (1u << 9)) || !(c & (1u << 19))) return 0;
  if (!__get_cpuid_count(7, 0, &a, &b, &c, &d)) return 0;
  return (b >> 29) & 1;
}

/* CPUID leaf 7 EBX bit 5 (AVX2); leaf 1 ECX bits 27 (OSXSAVE) and 28
   (AVX); and XGETBV(0) bits 1 and 2: the OS saves the SSE and AVX register
   state, without which ymm registers fault or lose their upper halves. */
static int cpu_has_avx2(void)
{
  unsigned int a, b, c, d, lo, hi;
  if (!__get_cpuid(1, &a, &b, &c, &d)) return 0;
  if (!(c & (1u << 27)) || !(c & (1u << 28))) return 0;
  __asm__ volatile("xgetbv" : "=a"(lo), "=d"(hi) : "c"(0));
  (void)hi;
  if ((lo & 6) != 6) return 0;
  if (!__get_cpuid_count(7, 0, &a, &b, &c, &d)) return 0;
  return (b >> 5) & 1;
}

__attribute__((constructor)) static void select_kernels(void)
{
  sha256_kernel = cpu_has_sha_ni();
  chacha20_kernel = cpu_has_avx2();
}
#endif


value caml_treaty_sha256_kernel(value unit)
{
  (void)unit;
  return Val_int(sha256_kernel);
}

/* Absorb [nblocks] whole 64-byte blocks of src starting at [off] into the
   state h: 8 big-endian words, 32 bytes. [kernel] as sha256_kernel; the
   caller asks for SHA-NI only where the CPU has it. */
static void sha256_blocks(int kernel, value h, value src, value off,
                          value nblocks)
{
  unsigned char *hp = Bytes_val(h);
  const unsigned char *p = Bytes_val(src) + Long_val(off);
  long n = Long_val(nblocks);
  uint32_t s[8];
  int i;

  for (i = 0; i < 8; i++) s[i] = load_be32(hp + 4 * i);
#ifdef TREATY_X86
  if (kernel == 1) sha256_shani(s, p, n);
  else sha256_portable(s, p, n);
#else
  (void)kernel;
  sha256_portable(s, p, n);
#endif
  for (i = 0; i < 8; i++) store_be32(hp + 4 * i, s[i]);
}

value caml_treaty_sha256_blocks(value h, value src, value off, value nblocks)
{
  sha256_blocks(sha256_kernel, h, src, off, nblocks);
  return Val_unit;
}

/* Each kernel by name, for the tests that check both against a reference
   on every host. sha256.ml calls the SHA-NI one only where the dispatcher
   chose it; a build without the SHA-NI kernel runs the portable one. */
value caml_treaty_sha256_blocks_portable(value h, value src, value off,
                                         value nblocks)
{
  sha256_blocks(0, h, src, off, nblocks);
  return Val_unit;
}

value caml_treaty_sha256_blocks_sha_ni(value h, value src, value off,
                                       value nblocks)
{
  sha256_blocks(1, h, src, off, nblocks);
  return Val_unit;
}
