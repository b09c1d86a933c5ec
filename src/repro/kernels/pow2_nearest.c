/*
 * Power-of-two BDR quantization with round-to-nearest-even: BFP and MX.
 *
 * Runs the operation sequence of the numpy backend's `_pow2_fused`, one
 * element at a time, so every output bit matches it:
 *
 *   E   = clamp(exponent of the block's max |x|, lo, hi)
 *   e_s = clamp(exponent of the sub-block's max |x|, lo, hi)
 *   e   = max(e_s, E - beta) - (m - 1)      step = 2^e, inv = 2^-e
 *   q   = x * inv;  q += MAGIC;  q = clamp(q, MAGIC - qmax, MAGIC + qmax)
 *   out = (q - MAGIC) * step
 *
 * Exactness rests on IEEE-754 double arithmetic done as written: build with
 * -ffp-contract=off (a fused multiply-add changes bits) and without
 * -ffast-math.  Exponents come from bit patterns: for non-negative doubles
 * the unsigned order of the bit patterns is the float order, so the max is
 * taken over `bits & ~sign` as integers.  inf and NaN have the largest
 * patterns (exponent field 0x7ff, raw exponent 1024), so the same pass
 * detects them: the kernel then returns 1 and the caller hands the call to
 * a slower path.  Zeros and subnormals read exponent -1023, below any clamp
 * the caller admits.
 *
 * Geometry: `x` is a C-contiguous (outer, n, inner) array; blocks of k1
 * run along n (stride `inner`), sub-blocks of k2 inside them, and a
 * trailing partial block behaves as if zero-padded.  The output element
 * (o, j, i) lands at out[o * os_outer + j * os_n + i * os_inner], so the
 * caller picks the memory layout.  No per-block buffer: a block is read
 * once for its maximum and once per sub-block, which keeps any k1/k2 safe.
 * beta = 0 is single-level scaling (BFP): e_s <= E, so e = E - (m - 1) for
 * the whole block and k2 is not used.
 */

#include <stdint.h>
#include <string.h>

#define MAGIC 6755399441055744.0 /* 1.5 * 2^52: x + MAGIC - MAGIC == rint(x) */
#define ABS_MASK 0x7fffffffffffffffULL

static inline uint64_t abs_bits(double v)
{
    uint64_t b;
    memcpy(&b, &v, sizeof b);
    return b & ABS_MASK;
}

static inline double from_bits(uint64_t b)
{
    double v;
    memcpy(&v, &b, sizeof v);
    return v;
}

static inline int64_t clamp(int64_t v, int64_t lo, int64_t hi)
{
    return v < lo ? lo : (v > hi ? hi : v);
}

static inline int64_t exponent_of(uint64_t bits)
{
    return (int64_t)(bits >> 52) - 1023;
}

/* One block of `len` elements, read at stride `xs` and written at stride
 * `os`; 1 when it holds inf or NaN.  Called with literal unit strides for
 * the common contiguous case, so that copy compiles without index math. */
static inline int quantize_block(const double *restrict x, int64_t xs,
                                 double *restrict out, int64_t os, int64_t len,
                                 int64_t ks, int64_t lo, int64_t hi, int64_t beta,
                                 int64_t m, double bottom, double top)
{
    uint64_t block_max = 0;
    for (int64_t j = 0; j < len; j++) {
        const uint64_t v = abs_bits(x[j * xs]);
        block_max = v > block_max ? v : block_max;
    }
    const int64_t raw = exponent_of(block_max);
    if (raw >= 1024)
        return 1;
    const int64_t shared = clamp(raw, lo, hi);
    for (int64_t s0 = 0; s0 < len; s0 += ks) {
        const int64_t s1 = s0 + ks < len ? s0 + ks : len;
        int64_t sub = shared;
        if (beta) {
            uint64_t sub_max = 0;
            for (int64_t j = s0; j < s1; j++) {
                const uint64_t v = abs_bits(x[j * xs]);
                sub_max = v > sub_max ? v : sub_max;
            }
            sub = clamp(exponent_of(sub_max), lo, hi);
        }
        const int64_t e = (sub > shared - beta ? sub : shared - beta) - (m - 1);
        const uint64_t step_bits = (uint64_t)(e + 1023) << 52;
        const double step = from_bits(step_bits);
        const double inv = from_bits((2046ULL << 52) - step_bits);
        for (int64_t j = s0; j < s1; j++) {
            double q = x[j * xs] * inv;
            q += MAGIC;
            q = q < bottom ? bottom : q;
            q = q > top ? top : q;
            q -= MAGIC;
            out[j * os] = q * step;
        }
    }
    return 0;
}

int repro_pow2_nearest(const double *x, double *out,
                       int64_t outer, int64_t n, int64_t inner,
                       int64_t os_outer, int64_t os_n, int64_t os_inner,
                       int64_t k1, int64_t k2, int64_t lo, int64_t hi,
                       int64_t beta, int64_t m, double qmax)
{
    const int64_t ks = beta ? k2 : k1;
    const double bottom = MAGIC - qmax, top = MAGIC + qmax;
    const int unit = inner == 1 && os_n == 1;
    for (int64_t o = 0; o < outer; o++) {
        const double *xo = x + o * n * inner;
        double *oo = out + o * os_outer;
        for (int64_t b0 = 0; b0 < n; b0 += k1) {
            const int64_t len = b0 + k1 < n ? k1 : n - b0;
            /* every fiber of this block before the next block: the block's
             * rows stay in cache across the fibers that share them */
            for (int64_t i = 0; i < inner; i++) {
                const double *xb = xo + b0 * inner + i;
                double *ob = oo + b0 * os_n + i * os_inner;
                if (unit ? quantize_block(xb, 1, ob, 1, len, ks, lo, hi, beta, m, bottom, top)
                         : quantize_block(xb, inner, ob, os_n, len, ks, lo, hi, beta, m,
                                          bottom, top))
                    return 1; /* inf or NaN */
            }
        }
    }
    return 0;
}
