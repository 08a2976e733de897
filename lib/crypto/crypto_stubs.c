/* ChaCha20 (RFC 8439) and SHA-256 (FIPS 180-4) compute kernels.

   ChaCha20 and the reference SHA-256 compression are portable C99:
   byte-wise little-/big-endian loads and stores, no intrinsics. On x86-64
   built with GCC or Clang, SHA-256 also has a kernel on the SHA extensions
   (SHA-NI). A constructor picks the kernel once, from CPUID, when the
   program loads; [caml_treaty_sha256_blocks] then calls the chosen one.
   Only that kernel is compiled for the extra instruction sets (a target
   attribute), so the library runs on any x86-64 and on other targets,
   where the portable kernel is the only one. Both kernels give the same
   digests bit for bit.

   Every stub is [@@noalloc]: they neither allocate nor raise, and the
   OCaml wrappers in chacha20.ml and sha256.ml validate every size and
   region before calling, so the C side only ever sees in-bounds regions. */

#include <stdint.h>
#include <string.h>
#include <caml/mlvalues.h>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define TREATY_SHA_NI 1
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

/* XOR the keystream starting at block [counter] (mod 2^32) into
   buf[off .. off+len). key is 32 bytes, nonce 12. */
value caml_treaty_chacha20_xor(value key, value nonce, value counter,
                               value buf, value off, value len)
{
  const unsigned char *k = (const unsigned char *)String_val(key);
  const unsigned char *n = (const unsigned char *)String_val(nonce);
  unsigned char *p = Bytes_val(buf) + Long_val(off);
  size_t remaining = (size_t)Long_val(len);
  uint32_t st[16], x[16];
  unsigned char ks[64];
  int i;

  st[0] = 0x61707865; st[1] = 0x3320646e; st[2] = 0x79622d32; st[3] = 0x6b206574;
  for (i = 0; i < 8; i++) st[4 + i] = load_le32(k + 4 * i);
  st[12] = (uint32_t)Long_val(counter);
  for (i = 0; i < 3; i++) st[13 + i] = load_le32(n + 4 * i);

  while (remaining > 0) {
    size_t m = remaining < 64 ? remaining : 64;
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
    remaining -= m;
    st[12]++;
  }
  return Val_unit;
}

value caml_treaty_chacha20_xor_byte(value *argv, int argn)
{
  (void)argn;
  return caml_treaty_chacha20_xor(argv[0], argv[1], argv[2], argv[3], argv[4],
                                  argv[5]);
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

#ifdef TREATY_SHA_NI
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

__attribute__((constructor)) static void sha256_select_kernel(void)
{
  sha256_kernel = cpu_has_sha_ni();
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
#ifdef TREATY_SHA_NI
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
