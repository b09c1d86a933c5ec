/*
 * The compiled nearest-rounding quantize bodies: power-of-two scaling (BFP
 * and MX, `repro_pow2_nearest`) and FP32 scaling (scaled INT and VSQ,
 * `repro_scaled_nearest`, further down).
 *
 * Power-of-two BDR quantization with round-to-nearest-even: BFP and MX.
 *
 * Runs the operation sequence of the numpy backend's `_pow2_fused` for
 * each element, so every output bit matches it:
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
 * caller picks the memory layout.  The scalar body keeps no per-block
 * buffer: a block is read once for its maximum and once per sub-block,
 * which keeps any k1/k2 safe.
 * beta = 0 is single-level scaling (BFP): e_s <= E, so e = E - (m - 1) for
 * the whole block and k2 is not used.
 *
 * Two bodies run that sequence: a scalar one, one element at a time, and
 * on x86-64 CPUs with AVX2 a vector one, four elements per instruction
 * (further down).  `repro_pow2_nearest` picks the vector body for the
 * geometries it covers and the scalar body for every other call.
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

/*
 * The AVX2 body: the scalar body's operations on four doubles at a time.
 * Every output is the same IEEE-754 operation on the same operands:
 *
 * - Maxima are taken over exponent fields, `x & 0x7ff0...0` (which also
 *   drops the sign), with `maxpd`.  A field with a zero mantissa is +0.0, a
 *   power of two or +inf, and for such values the float order is the bit
 *   pattern order; the field of the maximum |x| is the maximum of the
 *   fields.  So the block's and each sub-block's field equal those of the
 *   scalar body's integer maxima.
 * - inf and NaN have the all-ones field, the largest: a block whose maximum
 *   field is all ones makes the call return 1 before that block is
 *   quantized, as in the scalar body.
 * - Clamps are `maxpd`/`minpd` of fields against the fields of lo and hi.
 *   E - beta goes through 32-bit lanes of the biased exponent, once per
 *   block; the dispatch declines a clamp range whose biased bounds would
 *   leave [0, 2046].
 * - Step and reciprocal are packed from the step exponent's field, as in
 *   the scalar body: the step's bits are field - ((m - 1) << 52), the
 *   reciprocal's (2046 << 52) minus the step's.
 * - The quantize step is `x * inv`, `+ MAGIC`, `maxpd`/`minpd` against
 *   MAGIC -/+ qmax (the scalar ternaries for every non-NaN value: they part
 *   only on NaN, and a finite x times a finite inv is never NaN), `- MAGIC`
 *   and `* step`.
 *
 * Built with the target attribute "avx2" and not "fma", under the file's
 * -ffp-contract=off, so the compiler can neither contract an operation nor
 * use an instruction outside AVX2; the dispatch runs it only on CPUs that
 * report AVX2, so a cached build still runs on any CPU of its ABI.
 *
 * Geometry.  Along the trailing axis (inner == 1) the lanes are 4 adjacent
 * elements of a row: sub-blocks of k2 = 1, 2 or 4 sit inside one vector,
 * and k2 a multiple of 4 spans whole vectors (any other k2, or a k1 that is
 * not a multiple of 4, runs the scalar body).  A row takes the maxima of up
 * to SPAN blocks before it quantizes them, so the blocks' reductions overlap
 * instead of each waiting on its own.  A trailing partial block is read
 * with masked loads, whose masked lanes read zero (the zero padding), and
 * written with masked stores.  Along any other axis the lanes are 4
 * adjacent fibers, so every maximum is a lane's own, down the rows, and any
 * k1/k2 runs; the last inner % 4 fibers run in masked lanes.  The output
 * goes straight from the lanes in C order (os_inner == 1), or into the
 * block-last layout (os_n == 1) through 4x4 transposes of a tile of one
 * block, which caps k1 at TILE_ROWS there.
 */
#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>

#define POW2_AVX2 1
#define AVX2 __attribute__((target("avx2")))
#define EXP_MASK 0x7ff0000000000000LL
#define TILE_ROWS 256

/* the lanes below `left` */
static inline AVX2 __m256i lanes_below(int64_t left)
{
    return _mm256_cmpgt_epi64(_mm256_set1_epi64x(left), _mm256_set_epi64x(3, 2, 1, 0));
}

/* four doubles from x; lanes at or past `left` read 0, the zero padding */
static inline AVX2 __m256d load4(const double *x, int64_t left)
{
    return left >= 4 ? _mm256_loadu_pd(x) : _mm256_maskload_pd(x, lanes_below(left));
}

static inline AVX2 void store4(double *out, __m256d v, int64_t left)
{
    if (left >= 4)
        _mm256_storeu_pd(out, v);
    else
        _mm256_maskstore_pd(out, lanes_below(left), v);
}

static inline AVX2 __m256d field4(const double *x, int64_t left)
{
    return _mm256_and_pd(load4(x, left), _mm256_castsi256_pd(_mm256_set1_epi64x(EXP_MASK)));
}

/* the maximum of v's four lanes (fields), in every lane */
static inline AVX2 __m256d max4(__m256d v)
{
    v = _mm256_max_pd(v, _mm256_permute2f128_pd(v, v, 1));
    return _mm256_max_pd(v, _mm256_permute_pd(v, 5));
}

/* max(E - beta, lo) for each lane's clamped block field E */
static inline AVX2 __m256d floor_field(__m256d shared, int64_t beta, int64_t lo)
{
    const __m256i biased = _mm256_srli_epi64(_mm256_castpd_si256(shared), 52);
    const __m256i floor = _mm256_max_epi32(_mm256_sub_epi64(biased, _mm256_set1_epi64x(beta)),
                                           _mm256_set1_epi64x(lo + 1023));
    return _mm256_castsi256_pd(_mm256_slli_epi64(floor, 52));
}

/* x quantized at each lane's clamped exponent field e: step 2^(e - (m - 1)) */
static inline AVX2 __m256d quantize4(__m256d x, __m256d e, int64_t m, __m256d bottom,
                                     __m256d top)
{
    const __m256i step_bits = _mm256_sub_epi64(_mm256_castpd_si256(e),
                                               _mm256_set1_epi64x((int64_t)((uint64_t)(m - 1) << 52)));
    const __m256d inv = _mm256_castsi256_pd(
        _mm256_sub_epi64(_mm256_set1_epi64x((int64_t)(2046ULL << 52)), step_bits));
    __m256d q = _mm256_mul_pd(x, inv);
    q = _mm256_add_pd(q, _mm256_set1_pd(MAGIC));
    q = _mm256_max_pd(q, bottom);
    q = _mm256_min_pd(q, top);
    q = _mm256_sub_pd(q, _mm256_set1_pd(MAGIC));
    return _mm256_mul_pd(q, _mm256_castsi256_pd(step_bits));
}

typedef struct {
    int64_t k2, beta, m, lo;
    __m256d lo_field, hi_field, bottom, top;
} vparams;

/* the max field of `len` contiguous elements */
static inline AVX2 __m256d block_field(const double *x, int64_t len)
{
    __m256d f0 = _mm256_setzero_pd(), f1 = _mm256_setzero_pd();
    int64_t j = 0;
    for (; j + 8 <= len; j += 8) { /* two chains: a block's max is latency-bound */
        f0 = _mm256_max_pd(f0, field4(x + j, 4));
        f1 = _mm256_max_pd(f1, field4(x + j + 4, 4));
    }
    for (; j < len; j += 4)
        f0 = _mm256_max_pd(f0, field4(x + j, len - j));
    return max4(_mm256_max_pd(f0, f1));
}

/* One block of `len` contiguous elements; `field` is its clamped field E
 * when beta == 0, else the floor max(E - beta, lo). */
static inline AVX2 void vector_block(const double *restrict x, double *restrict out,
                                     int64_t len, __m256d field, const vparams *p)
{
    if (!p->beta) {
        for (int64_t j = 0; j < len; j += 4)
            store4(out + j, quantize4(load4(x + j, len - j), field, p->m, p->bottom, p->top),
                   len - j);
        return;
    }
    /* e_s >= lo, so max(e_s, E - beta) == max(e_s, max(E - beta, lo)), and
     * clamp(e_s, lo, hi) == min(max(e_s, that floor), hi) */
    if (p->k2 <= 4) { /* each sub-block inside one vector */
        for (int64_t j = 0; j < len; j += 4) {
            const __m256d v = load4(x + j, len - j);
            __m256d f = _mm256_and_pd(v, _mm256_castsi256_pd(_mm256_set1_epi64x(EXP_MASK)));
            if (p->k2 == 2)
                f = _mm256_max_pd(f, _mm256_permute_pd(f, 5));
            else if (p->k2 == 4)
                f = max4(f);
            const __m256d e = _mm256_min_pd(_mm256_max_pd(f, field), p->hi_field);
            store4(out + j, quantize4(v, e, p->m, p->bottom, p->top), len - j);
        }
        return;
    }
    for (int64_t s0 = 0; s0 < len; s0 += p->k2) { /* k2 % 4 == 0: whole vectors */
        const int64_t s1 = s0 + p->k2 < len ? s0 + p->k2 : len;
        __m256d f = _mm256_setzero_pd();
        for (int64_t j = s0; j < s1; j += 4)
            f = _mm256_max_pd(f, field4(x + j, s1 - j));
        const __m256d e = _mm256_min_pd(_mm256_max_pd(max4(f), field), p->hi_field);
        for (int64_t j = s0; j < s1; j += 4)
            store4(out + j, quantize4(load4(x + j, s1 - j), e, p->m, p->bottom, p->top), s1 - j);
    }
}

#define SPAN 32 /* blocks whose maxima are all taken before any is quantized */

/* One row of n contiguous elements in blocks of k1; 1 when it holds inf or
 * NaN.  A span's block maxima are independent of one another, so they
 * overlap in the pipeline instead of each waiting on its own reduction. */
static inline AVX2 int vector_row(const double *restrict x, double *restrict out,
                                  int64_t n, int64_t k1, const vparams *p)
{
    __m256d fields[SPAN];
    for (int64_t s = 0; s < n; s += SPAN * k1) {
        const int64_t end = s + SPAN * k1 < n ? s + SPAN * k1 : n;
        __m256d top = _mm256_setzero_pd();
        for (int64_t b0 = s, b = 0; b0 < end; b0 += k1, b++) {
            const __m256d block = block_field(x + b0, end - b0 < k1 ? end - b0 : k1);
            top = _mm256_max_pd(top, block);
            const __m256d shared = _mm256_min_pd(_mm256_max_pd(block, p->lo_field), p->hi_field);
            fields[b] = p->beta ? floor_field(shared, p->beta, p->lo) : shared;
        }
        if (_mm256_movemask_pd(_mm256_castsi256_pd(
                _mm256_cmpeq_epi64(_mm256_castpd_si256(top), _mm256_set1_epi64x(EXP_MASK)))))
            return 1; /* inf or NaN */
        for (int64_t b0 = s, b = 0; b0 < end; b0 += k1, b++)
            vector_block(x + b0, out + b0, end - b0 < k1 ? end - b0 : k1, fields[b], p);
    }
    return 0;
}

/* 4x4 transpose: lane l of rows r[0..3] becomes row l */
static inline AVX2 void transpose4(__m256d r[4])
{
    const __m256d t0 = _mm256_unpacklo_pd(r[0], r[1]), t1 = _mm256_unpackhi_pd(r[0], r[1]);
    const __m256d t2 = _mm256_unpacklo_pd(r[2], r[3]), t3 = _mm256_unpackhi_pd(r[2], r[3]);
    r[0] = _mm256_permute2f128_pd(t0, t2, 0x20);
    r[1] = _mm256_permute2f128_pd(t1, t3, 0x20);
    r[2] = _mm256_permute2f128_pd(t0, t2, 0x31);
    r[3] = _mm256_permute2f128_pd(t1, t3, 0x31);
}

/* One block of `len` rows `xs` apart, four adjacent fibers per vector (lanes
 * at or past `left` read 0 and are never written).  Row j of fiber l lands
 * at out[j * os_n + l * os_inner]: straight from the lanes when
 * os_inner == 1, else (os_n == 1) through `tile` and 4x4 transposes.
 * 1 when the block holds inf or NaN. */
static inline AVX2 int fiber_block(const double *restrict x, int64_t xs,
                                   double *restrict out, int64_t os_n, int64_t os_inner,
                                   int64_t len, int64_t left, const vparams *p,
                                   double *restrict tile)
{
    const int direct = os_inner == 1;
    double *rows = direct ? out : tile;
    const int64_t rs = direct ? os_n : 4;
    __m256d block = _mm256_setzero_pd();
    for (int64_t j = 0; j < len; j++)
        block = _mm256_max_pd(block, field4(x + j * xs, left));
    if (_mm256_movemask_pd(_mm256_castsi256_pd(
            _mm256_cmpeq_epi64(_mm256_castpd_si256(block), _mm256_set1_epi64x(EXP_MASK)))))
        return 1; /* inf or NaN */
    const __m256d shared = _mm256_min_pd(_mm256_max_pd(block, p->lo_field), p->hi_field);
    const int64_t ks = p->beta ? p->k2 : len;
    for (int64_t s0 = 0; s0 < len; s0 += ks) {
        const int64_t s1 = s0 + ks < len ? s0 + ks : len;
        __m256d e = shared;
        if (p->beta) { /* as in vector_block */
            __m256d f = _mm256_setzero_pd();
            for (int64_t j = s0; j < s1; j++)
                f = _mm256_max_pd(f, field4(x + j * xs, left));
            e = _mm256_min_pd(_mm256_max_pd(f, floor_field(shared, p->beta, p->lo)),
                              p->hi_field);
        }
        for (int64_t j = s0; j < s1; j++)
            store4(rows + j * rs,
                   quantize4(load4(x + j * xs, left), e, p->m, p->bottom, p->top),
                   direct ? left : 4);
    }
    if (direct)
        return 0;
    for (int64_t j = 0; j < len; j += 4) {
        __m256d r[4];
        for (int64_t l = 0; l < 4; l++) /* rows past len repeat row j, never stored */
            r[l] = _mm256_loadu_pd(tile + 4 * (j + l < len ? j + l : j));
        transpose4(r);
        for (int64_t l = 0; l < left && l < 4; l++)
            store4(out + l * os_inner + j, r[l], len - j);
    }
    return 0;
}

static AVX2 int pow2_nearest_avx2(const double *x, double *out,
                                  int64_t outer, int64_t n, int64_t inner,
                                  int64_t os_outer, int64_t os_n, int64_t os_inner,
                                  int64_t k1, int64_t k2, int64_t lo, int64_t hi,
                                  int64_t beta, int64_t m, double qmax)
{
    const vparams p = {
        /* E - beta below lo floors at lo: a beta past hi - lo floors alike */
        k2, beta < hi - lo ? beta : hi - lo, m, lo,
        _mm256_castsi256_pd(_mm256_set1_epi64x((lo + 1023) << 52)),
        _mm256_castsi256_pd(_mm256_set1_epi64x((hi + 1023) << 52)),
        _mm256_set1_pd(MAGIC - qmax), _mm256_set1_pd(MAGIC + qmax),
    };
    double tile[4 * TILE_ROWS];
    for (int64_t o = 0; o < outer; o++) {
        const double *xo = x + o * n * inner;
        double *oo = out + o * os_outer;
        if (inner == 1) {
            if (vector_row(xo, oo, n, k1, &p))
                return 1; /* inf or NaN */
            continue;
        }
        for (int64_t b0 = 0; b0 < n; b0 += k1) {
            const int64_t len = b0 + k1 < n ? k1 : n - b0;
            for (int64_t i = 0; i < inner; i += 4)
                if (fiber_block(xo + b0 * inner + i, inner, oo + b0 * os_n + i * os_inner,
                                os_n, os_inner, len, inner - i, &p, tile))
                    return 1;
        }
    }
    return 0;
}
#endif

/* Test seam: nonzero runs every call on the scalar body. */
int repro_pow2_scalar_only = 0;
/* 1 when this thread's last call ran the AVX2 body, else 0: lets a check
 * see which body served a call */
static __thread int last_body;

int repro_pow2_last_body(void)
{
    return last_body;
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
#ifdef POW2_AVX2
    /* the geometries the AVX2 body covers (see its comment) */
    const int trailing = unit && k1 % 4 == 0 && (!beta || k2 <= 2 || k2 % 4 == 0);
    const int fibers = inner > 1 && (os_inner == 1 || (os_n == 1 && k1 <= TILE_ROWS));
    if ((trailing || fibers) && lo + 1023 >= 0 && hi + 1023 <= 2046 && lo <= hi
        && !repro_pow2_scalar_only && __builtin_cpu_supports("avx2")) {
        last_body = 1;
        return pow2_nearest_avx2(x, out, outer, n, inner, os_outer, os_n, os_inner,
                                 k1, k2, lo, hi, beta, m, qmax);
    }
#endif
    last_body = 0;
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
