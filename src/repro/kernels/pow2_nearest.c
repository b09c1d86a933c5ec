/*
 * The compiled nearest-rounding quantize bodies: power-of-two scaling (BFP
 * and MX, `repro_pow2_nearest`) and FP32 scaling (scaled INT and VSQ,
 * `repro_scaled_nearest`, further down).
 *
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

#include <float.h>
#include <math.h>
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

/*
 * FP32-scaled BDR quantization with round-to-nearest-even: scaled INT (one
 * level) and VSQ (unsigned integer sub-scales of d2 bits).
 *
 * Runs the operation sequence of the numpy backend's `_int_fused` and
 * `_vsq_fused`, one element at a time, so every output bit matches them.
 * With amax the max |x| of a block (INT) or of a sub-block (VSQ), qmax the
 * element code limit and ssq = 2^d2 - 1:
 *
 *   INT   s     = fp32(amax < DBL_MIN ? 1 : amax / qmax)      or the override
 *         out   = clip(rint(x / s), -qmax, qmax) * s
 *   VSQ   sigma = amax == 0 ? 0 : (amax < DBL_MIN ? 1 : amax / qmax)
 *         s     = fp32(max sigma / ssq, or 1 when that is <= 0)   or the override
 *         step  = s * clip(ceil(sigma / s), 0, ssq)           one per sub-block
 *         q     = clip(rint(x / (step <= 0 ? 1 : step)), -qmax, qmax)
 *         out   = (step <= 0 ? 0 : q) * step
 *
 * rint is the magic-number shift, `(q + MAGIC) - MAGIC`; fp32() is the
 * round trip through float; the override arrives already rounded to fp32.
 * Every division is a true division, never a multiply by a reciprocal,
 * whose rounding differs.  clip() is numpy 2's: a value equal to a bound
 * (-0.0 against 0.0 included) and NaN pass through unchanged; only a
 * negative scale can bring -0.0 to a bound, and the caller passes none.  A
 * zero or underflowed scale yields the inf and NaN the numpy body yields.
 *
 * Maxima come from bit patterns as in the pow2 body; a block holding inf
 * or NaN returns 1 (the caller then runs the numpy body).  Geometry and
 * output layout are the pow2 body's, including the zero-padded view of a
 * trailing partial block: padding is all zero, so it moves no maximum, and
 * its outputs are never read.  `ssq == 0` selects INT; `jit == 0` uses
 * `scale` for every block instead of deriving one.
 */

#define INF_BITS 0x7ff0000000000000ULL

/* numpy 2's np.clip on float64: min(max(v, lo), hi), keeping v on ties and NaN */
static inline double clip(double v, double lo, double hi)
{
    return v < lo ? lo : (v > hi ? hi : v);
}

static inline uint64_t max_bits(const double *restrict x, int64_t xs, int64_t len)
{
    uint64_t top = 0;
    for (int64_t j = 0; j < len; j++) {
        const uint64_t v = abs_bits(x[j * xs]);
        top = v > top ? v : top;
    }
    return top;
}

/* a sub-block's ideal scale: amax_scale, and 0 for an all-zero sub-block */
static inline double sub_sigma(uint64_t amax_bits, double qmax)
{
    const double amax = from_bits(amax_bits);
    return amax_bits == 0 ? 0.0 : (amax < DBL_MIN ? 1.0 : amax / qmax);
}

/* x / step, rounded to nearest-even and clipped, times the step */
static inline void scale_round(const double *restrict x, int64_t xs,
                               double *restrict out, int64_t os, int64_t len,
                               double step, double qmax)
{
    for (int64_t j = 0; j < len; j++) {
        double q = x[j * xs] / step;
        q += MAGIC;
        q -= MAGIC;
        out[j * os] = clip(q, -qmax, qmax) * step;
    }
}

static inline int scaled_block(const double *restrict x, int64_t xs,
                               double *restrict out, int64_t os, int64_t len,
                               int64_t k2, double qmax, double ssq,
                               int64_t jit, double scale)
{
    if (ssq == 0.0) { /* INT: one scale for the block */
        const uint64_t top = max_bits(x, xs, len);
        if (top >= INF_BITS)
            return 1;
        if (jit) {
            const double amax = from_bits(top);
            scale = (double)(float)(amax < DBL_MIN ? 1.0 : amax / qmax);
        }
        scale_round(x, xs, out, os, len, scale, qmax);
        return 0;
    }
    if (jit) {
        double top = 0.0;
        for (int64_t s0 = 0; s0 < len; s0 += k2) {
            const uint64_t sub = max_bits(x + s0 * xs, xs, s0 + k2 < len ? k2 : len - s0);
            if (sub >= INF_BITS)
                return 1;
            const double sigma = sub_sigma(sub, qmax);
            top = sigma > top ? sigma : top;
        }
        top /= ssq;
        scale = (double)(float)(top <= 0.0 ? 1.0 : top);
    }
    for (int64_t s0 = 0; s0 < len; s0 += k2) {
        const int64_t sub_len = s0 + k2 < len ? k2 : len - s0;
        const double *xsub = x + s0 * xs;
        double *osub = out + s0 * os;
        const uint64_t sub = max_bits(xsub, xs, sub_len);
        if (sub >= INF_BITS)
            return 1;
        const double step = scale * clip(ceil(sub_sigma(sub, qmax) / scale), 0.0, ssq);
        if (step <= 0.0) {
            for (int64_t j = 0; j < sub_len; j++)
                osub[j * os] = 0.0 * step;
        } else {
            scale_round(xsub, xs, osub, os, sub_len, step, qmax);
        }
    }
    return 0;
}

int repro_scaled_nearest(const double *x, double *out,
                         int64_t outer, int64_t n, int64_t inner,
                         int64_t os_outer, int64_t os_n, int64_t os_inner,
                         int64_t k1, int64_t k2, double qmax, double ssq,
                         int64_t jit, double scale)
{
    const int unit = inner == 1 && os_n == 1;
    for (int64_t o = 0; o < outer; o++) {
        const double *xo = x + o * n * inner;
        double *oo = out + o * os_outer;
        for (int64_t b0 = 0; b0 < n; b0 += k1) {
            const int64_t len = b0 + k1 < n ? k1 : n - b0;
            for (int64_t i = 0; i < inner; i++) {
                const double *xb = xo + b0 * inner + i;
                double *ob = oo + b0 * os_n + i * os_inner;
                if (unit ? scaled_block(xb, 1, ob, 1, len, k2, qmax, ssq, jit, scale)
                         : scaled_block(xb, inner, ob, os_n, len, k2, qmax, ssq, jit, scale))
                    return 1; /* inf or NaN */
            }
        }
    }
    return 0;
}
