/*
 * The ladder update of repro.aggregation.grouped.add_blocked_multi: one
 * block of (group id, value) rows into several same-parameter
 * GroupedSummation tables, one pass per table.
 *
 * Per row: classify (finite, fits under the table's prevailing ladder E,
 * group on E), extract L levels against scalar anchors a_l = 1.5 * 2**e_l
 * with e_l = E - l*W, and add each level's quantum q = k * 2**(e_l - m)
 * as the int64 k straight into s[l][g].  Each quantum is exactly the one
 * the NumPy reference (GroupedSummation.add_pairs) computes for the row,
 * so the state equals the reference's under any blocking; grouped.py
 * carries the proof.  Rows the ladder declines come back as indices for
 * the reference to take.
 *
 * The whole-block rule: plan already reads every value for the block's
 * |max|.  When that |max| (before any non-finite re-rank) fits under E
 * and every group of the table sits on E, no row of the block can be
 * declined, so the block is *whole*: update extracts and adds each row
 * without reading the row rule.  Any other block is one classifying
 * pass that also seeds the empty groups a row puts on E; the few rows
 * that wait on a seed (too small to put their own group on E) are
 * settled after it, from a deferred list.
 *
 * No state lives outside the arguments: two threads may run the kernel
 * at once on different tables.  Build without -ffast-math and with
 * -ffp-contract=off, which keep (r + a) - a from being folded or fused.
 *
 * The library also holds GroupedSummation.finalize (Equation 1,
 * ladder_finalize), whose operations are the NumPy oracle's
 * (tests/reference_finalize.py) in the same order.
 *
 * The file includes itself once per value type: the part after #else is
 * the template, instantiated for double (suffix f64) and float (f32),
 * and for binary16's Equation 1 alone (f16).
 */
#ifndef LADDER_T

#include <float.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

#if !defined(FLT_EVAL_METHOD) || FLT_EVAL_METHOD != 0
#error "the ladder kernel needs float and double arithmetic in their own precision"
#endif

/* GroupedSummation's e0 for a group on no ladder yet. */
#define EMPTY_E0 (-(INT64_C(1) << 40))
/* The ladder of a table whose block is all zeros: nothing to do. */
#define ALL_ZERO INT64_MIN

/* Why the kernel declines a whole block (the return value), or why the
 * first declined row was (io counter C_FIRST); grouped.py names them. */
enum { TAKEN = 0, NON_FINITE = 1, OFF_LADDER = 2, SUBNORMAL = 3 };

/* The int64 `io` array: the parameters, then T_SLOTS per table, then the
 * counters. */
enum { P_LEVELS, P_M, P_W, P_EMIN, P_EMIN_GRID, P_EMAX_GRID, P_TABLES };
enum { T_NGROUPS, T_LADDER, T_NCOLD, T_WHOLE, T_SLOTS };
enum { C_TAKEN, C_DECLINED, C_FIRST };

static int64_t floor_div(int64_t a, int64_t b)
{
    int64_t q = a / b;
    return (a % b != 0 && (a < 0) != (b < 0)) ? q - 1 : q;
}

/* GroupedSummation._needed_e0 of one finite non-zero magnitude. */
static int64_t needed_e0(double peak, const int64_t *io)
{
    int exp;
    int64_t w = io[P_W], needed;
    frexp(peak, &exp);
    needed = -floor_div(-(exp - 1 + io[P_M] - w + 2), w) * w;
    return needed > io[P_EMIN_GRID] ? needed : io[P_EMIN_GRID];
}

/* GroupedSummation._propagate: canonicalise s into [0, 2**(m-2)),
 * moving the whole multiples into the carry counter c.  s - low is a
 * whole multiple of 2**(m-2), so the arithmetic shift (gcc and clang
 * shift a negative int64 arithmetically) is its exact quotient. */
static void propagate(int64_t *s, int64_t *c, int64_t ngroups, int64_t m)
{
    const int64_t low_bits = (INT64_C(1) << (m - 2)) - 1;
    for (int64_t g = 0; g < ngroups; g++) {
        c[g] += s[g] >> (m - 2);
        s[g] &= low_bits;
    }
}

/* x rounded to binary16's precision and range, to nearest even: what
 * NumPy's float16 arithmetic does to each float result.  Within the
 * half range the float x is exact in double, and (x + c) - c with
 * c = 1.5 * 2**(e+42) rounds it to a multiple of 2**(e-10), the half
 * ulp of x's binade e (of 2**-24 below the normal range). */
static float half_round(float x)
{
    int e;
    double c, r;
    if (x == 0 || !(fabsf(x) <= FLT_MAX))
        return x;
    frexpf(x, &e);
    c = ldexp(1.5, (e <= -14 ? -14 : e - 1) + 42);
    r = ((double)x + c) - c;
    return copysignf(fabs(r) > 65504.0 ? INFINITY : (float)r, x);
}

#define LADDER_ROUND(x) (x)
#define LADDER_T double
#define LADDER_BITS uint64_t
#define LADDER_MANT 52
#define LADDER_EMIN (-1022)
#define LADDER_EMAX 1023
#define LADDER_LDEXP ldexp
#define LADDER_NAME(name) name##_f64
#include "_ladder.c"
#undef LADDER_T
#undef LADDER_BITS
#undef LADDER_MANT
#undef LADDER_EMIN
#undef LADDER_EMAX
#undef LADDER_LDEXP
#undef LADDER_NAME

/* float carries the f32 ladder; its f16 instance is Equation 1 alone,
 * in float with every result rounded to binary16 (no ladder update). */
#define LADDER_T float
#define LADDER_BITS uint32_t
#define LADDER_MANT 23
#define LADDER_EMIN (-126)
#define LADDER_EMAX 127
#define LADDER_LDEXP ldexpf

#undef LADDER_ROUND
#define LADDER_ROUND(x) half_round(x)
#define LADDER_HALF
#define LADDER_NAME(name) name##_f16
#include "_ladder.c"
#undef LADDER_HALF
#undef LADDER_NAME
#undef LADDER_ROUND

#define LADDER_ROUND(x) (x)
#define LADDER_NAME(name) name##_f32
#include "_ladder.c"

#else /* the template: LADDER_T is the value type, LADDER_BITS its width */
#ifndef LADDER_HALF

/*
 * |x| as its bits, which order like the magnitudes: every comparison of
 * magnitudes below is one of these, and NaN/+-inf sit above all finite
 * ones.
 */
static LADDER_BITS LADDER_NAME(magnitude)(LADDER_T x)
{
    LADDER_BITS bits;
    memcpy(&bits, &x, sizeof bits);
    return bits & (LADDER_BITS)~((LADDER_BITS)1 << (8 * sizeof bits - 1));
}

static LADDER_BITS LADDER_NAME(bits_of)(double x)
{
    return LADDER_NAME(magnitude)((LADDER_T)x);
}

static LADDER_T LADDER_NAME(value_of)(LADDER_BITS bits)
{
    LADDER_T x;
    memcpy(&x, &bits, sizeof x);
    return x;
}

/* A row fits under E below this magnitude. */
static LADDER_BITS LADDER_NAME(fits_under)(int64_t e, const int64_t *io)
{
    return LADDER_NAME(bits_of)(ldexp(1.0, (int)(e - io[P_M] + io[P_W] - 1)));
}

/*
 * The block decisions of one table, made before any state moves: the
 * reason the table declines the whole block, or TAKEN with slot[T_LADDER]
 * set to the ladder E the block runs on (ALL_ZERO when every value is
 * +-0) and slot[T_WHOLE] to whether the block is whole (no row declines).
 */
static int64_t LADDER_NAME(plan)(int64_t n, const LADDER_T *v,
                                 const int64_t *e0, const int64_t *io,
                                 int64_t *slot)
{
    const LADDER_BITS inf = LADDER_NAME(bits_of)(INFINITY);
    const int64_t m = io[P_M], w = io[P_W], ngroups = slot[T_NGROUPS];
    LADDER_BITS top = 0, peak_bits, lane[4] = {0, 0, 0, 0};
    int64_t hi = EMPTY_E0, lo = -EMPTY_E0, e, i;
    double peak;
    for (i = 0; i + 4 <= n; i += 4) {  /* four independent maxima */
        for (int j = 0; j < 4; j++) {
            LADDER_BITS a = LADDER_NAME(magnitude)(v[i + j]);
            lane[j] = a > lane[j] ? a : lane[j];
        }
    }
    for (; i < n; i++) {
        LADDER_BITS a = LADDER_NAME(magnitude)(v[i]);
        top = a > top ? a : top;
    }
    for (int j = 0; j < 4; j++)
        top = lane[j] > top ? lane[j] : top;
    slot[T_LADDER] = ALL_ZERO;
    slot[T_WHOLE] = 0;
    if (top == 0)
        return TAKEN;
    peak_bits = top;
    if (top >= inf) {  /* rank the block by its finite |max| */
        peak_bits = 0;
        for (i = 0; i < n; i++) {
            LADDER_BITS a = LADDER_NAME(magnitude)(v[i]);
            peak_bits = a > peak_bits && a < inf ? a : peak_bits;
        }
        if (peak_bits == 0)
            return NON_FINITE;
    }
    peak = (double)LADDER_NAME(value_of)(peak_bits);
    if (peak >= ldexp(1.0, (int)(io[P_EMAX_GRID] - m + w - 1)))
        return OFF_LADDER;  /* the reference raises its range error */
    for (int64_t g = 0; g < ngroups; g++) {
        hi = e0[g] > hi ? e0[g] : hi;
        lo = e0[g] < lo ? e0[g] : lo;
    }
    e = hi == EMPTY_E0 ? needed_e0(peak, io) : hi;
    if (e - (io[P_LEVELS] - 1) * w < io[P_EMIN])
        return SUBNORMAL;
    slot[T_LADDER] = e;
    /* |max| fits under E (so every row is finite) and every group is on
     * E: the row rule takes every row */
    slot[T_WHOLE] = lo == e && top < LADDER_NAME(fits_under)(e, io);
    return TAKEN;
}

/*
 * One level of the extraction: the row's residual r against the anchor
 * whose bits are a_bits.  Stores the level's k, returns the next residual.
 */
static LADDER_T LADDER_NAME(extract)(LADDER_T r, LADDER_BITS a_bits,
                                     int64_t *k)
{
    const LADDER_T a = LADDER_NAME(value_of)(a_bits), t = r + a;
    LADDER_BITS t_bits;
    memcpy(&t_bits, &t, sizeof t_bits);
    *k = (int64_t)t_bits - (int64_t)a_bits;
    return r - (t - a);
}

/* The row rule: taken when it fits under E and its group sits on E. */
static int LADDER_NAME(taken)(LADDER_T v, LADDER_BITS fits, int64_t group,
                              int64_t e)
{
    return LADDER_NAME(magnitude)(v) < fits && group == e;
}

/*
 * Extract one taken row r of group g at every level and add its quanta
 * into s[l][g].
 *
 * The quantum needs no scaling: |r| < 2**(e_l - 3) (W <= m - 2), so
 * t = r + a_l stays in a_l's binade, q = t - a_l is exact, and
 * k = q / 2**(e_l - m) is the difference of the significands of t and
 * a_l, read off their bits.
 */
static inline void LADDER_NAME(add_row)(LADDER_T r, int64_t g,
                                        void *const *state, int64_t nlevels,
                                        LADDER_BITS anchor, LADDER_BITS step)
{
    int64_t k, k1;
    if (nlevels == 2) {  /* the default, unrolled */
        r = LADDER_NAME(extract)(r, anchor, &k);
        LADDER_NAME(extract)(r, anchor - step, &k1);
        ((int64_t *)state[1])[g] += k;
        ((int64_t *)state[2])[g] += k1;
        return;
    }
    for (int64_t l = 0; l < nlevels; l++) {
        r = LADDER_NAME(extract)(r, anchor - (LADDER_BITS)l * step, &k);
        ((int64_t *)state[1 + l])[g] += k;
    }
}

/*
 * Run one block on ladder E for one table: seed, accumulate, propagate.
 * `state` is e0, s[0..L), c[0..L); `deferred` has room for n row
 * indices.  A whole block takes every row as it comes.  Any other block
 * is one pass that classifies each row against the group's e0 as it
 * stands: a fitting row of a group on E is taken; a fitting row of an
 * empty group that needs exactly E puts the group on E and is taken; a
 * fitting row of an empty group that does not is deferred, and taken
 * after the pass if its group was put on E meanwhile; every other row
 * is declined.  Returns how many rows it declined, and sets *first, if
 * still TAKEN, to why the first of them in row order was.
 */
static int64_t LADDER_NAME(update)(int64_t n, const int64_t *gids,
                                   const LADDER_T *v, void *const *state,
                                   int64_t ngroups, const int64_t *io,
                                   int64_t e, int64_t whole, int64_t *first,
                                   int64_t *deferred)
{
    const int64_t nlevels = io[P_LEVELS], m = io[P_M], w = io[P_W];
    int64_t *e0 = state[0];
    /* a_0's bits; a_{l+1} is a_l with W less in the exponent field */
    const LADDER_BITS anchor = LADDER_NAME(bits_of)(ldexp(1.5, (int)e));
    const LADDER_BITS step = (LADDER_BITS)w << m;
    int64_t ncold = 0;

    if (whole) {
        for (int64_t i = 0; i < n; i++)
            LADDER_NAME(add_row)(v[i], gids[i], state, nlevels, anchor, step);
    } else {
        const LADDER_BITS fits = LADDER_NAME(fits_under)(e, io);
        const LADDER_BITS inf = LADDER_NAME(bits_of)(INFINITY);
        /* a row needs exactly E from here up (any non-zero row does on
         * the floor ladder, which nothing sits below) */
        const LADDER_BITS needs = e > io[P_EMIN_GRID]
            ? LADDER_NAME(bits_of)(ldexp(1.0, (int)(e - m - 1))) : 1;
        int64_t ndeferred = 0, first_cold = n, why = TAKEN;
        for (int64_t i = 0; i < n; i++) {
            const int64_t g = gids[i];
            const LADDER_T r = v[i];
            const LADDER_BITS a = LADDER_NAME(magnitude)(r);
            if (a < fits) {
                if (e0[g] == EMPTY_E0) {
                    if (a < needs) {
                        deferred[ndeferred++] = i;
                        continue;
                    }
                    e0[g] = e;
                }
                if (e0[g] == e) {
                    LADDER_NAME(add_row)(r, g, state, nlevels, anchor, step);
                    continue;
                }
            }
            if (ncold++ == 0) {
                first_cold = i;
                why = a < inf ? OFF_LADDER : NON_FINITE;
            }
        }
        /* A deferred row fits (so it is finite): its group is on E now,
         * or it is declined as off the ladder. */
        for (int64_t j = 0; j < ndeferred; j++) {
            const int64_t i = deferred[j], g = gids[i];
            if (e0[g] == e) {
                LADDER_NAME(add_row)(v[i], g, state, nlevels, anchor, step);
            } else if (ncold++ == 0 || i < first_cold) {
                first_cold = i;
                why = OFF_LADDER;
            }
        }
        if (ncold && *first == TAKEN)
            *first = why;
    }
    for (int64_t l = 0; l < nlevels; l++)
        propagate(state[1 + l], state[1 + nlevels + l], ngroups, m);
    return ncold;
}

/*
 * Rows [start, stop) into `ntables` tables sharing the parameters in
 * `io`.  ptrs holds gids, the tables' values rows, then for each table
 * its state arrays e0, s[0..L), c[0..L) (1 + 2L pointers), then an
 * int64 scratch array with room for stop - start row indices; the
 * caller builds ptrs and io once and calls this once per block.  Every
 * gids[i] is below each table's ngroups.
 *
 * Returns TAKEN, or the reason the whole block is declined, decided
 * table by table in order before any state moves.  On TAKEN, each
 * table's slot holds its ladder, whether the block was whole for it and
 * how many rows it declined (their indices: ladder_declined), and the
 * counters hold the rows taken, the rows declined and why the first
 * declined row was.
 */
int64_t LADDER_NAME(ladder_block)(int64_t start, int64_t stop,
                                  int64_t ntables, void *const *ptrs,
                                  int64_t *io)
{
    const int64_t n = stop - start, *gids = (const int64_t *)ptrs[0] + start;
    void *const *vals = ptrs + 1, *const *states = ptrs + 1 + ntables;
    const int64_t width = 1 + 2 * io[P_LEVELS];
    int64_t *deferred = states[ntables * width];
    int64_t *counters = io + P_TABLES + T_SLOTS * ntables;

    for (int64_t t = 0; t < ntables; t++) {
        int64_t reason = LADDER_NAME(plan)(
            n, (const LADDER_T *)vals[t] + start, states[t * width], io,
            io + P_TABLES + T_SLOTS * t);
        if (reason != TAKEN)
            return reason;
    }
    counters[C_TAKEN] = counters[C_DECLINED] = counters[C_FIRST] = 0;
    for (int64_t t = 0; t < ntables; t++) {
        int64_t *slot = io + P_TABLES + T_SLOTS * t;
        slot[T_NCOLD] = 0;
        if (slot[T_LADDER] == ALL_ZERO) {
            counters[C_TAKEN] += n;  /* an exact no-op, as in the reference */
            continue;
        }
        slot[T_NCOLD] = LADDER_NAME(update)(
            n, gids, (const LADDER_T *)vals[t] + start, states + t * width,
            slot[T_NGROUPS], io, slot[T_LADDER], slot[T_WHOLE],
            counters + C_FIRST, deferred);
        counters[C_TAKEN] += n - slot[T_NCOLD];
        counters[C_DECLINED] += slot[T_NCOLD];
    }
    return TAKEN;
}

/*
 * After ladder_block, the indices of the rows of [start, stop) table t
 * declined, in ascending order, into `cold` (its T_NCOLD of them): the
 * row rule read again against the e0 the block left: the pass takes a
 * row exactly when it fits and its group is on E by the pass's end (a
 * group put on E stays there), which is what the rule reads.
 */
void LADDER_NAME(ladder_declined)(int64_t start, int64_t stop,
                                  int64_t ntables, int64_t t,
                                  void *const *ptrs, const int64_t *io,
                                  int64_t *cold)
{
    const int64_t *gids = ptrs[0];
    const LADDER_T *v = ptrs[1 + t];
    const int64_t *e0 = ptrs[1 + ntables + t * (1 + 2 * io[P_LEVELS])];
    const int64_t e = io[P_TABLES + T_SLOTS * t + T_LADDER];
    const LADDER_BITS fits = LADDER_NAME(fits_under)(e, io);
    int64_t ncold = 0;
    for (int64_t i = start; i < stop; i++)
        if (!LADDER_NAME(taken)(v[i], fits, e0[gids[i]], e))
            cold[ncold++] = i;
}

#endif /* LADDER_HALF */

/* 2**k in LADDER_T: built from its bits inside the normal range, and
 * LADDER_LDEXP's (a subnormal, zero or inf) outside it. */
static LADDER_T LADDER_NAME(pow2)(int64_t k)
{
    LADDER_BITS bits;
    LADDER_T x;
    if (k < LADDER_EMIN || k > LADDER_EMAX)
        return LADDER_LDEXP((LADDER_T)1, (int)(k < -4096 ? -4096
                                               : k > 4096 ? 4096 : k));
    bits = (LADDER_BITS)(k - LADDER_EMIN + 1) << LADDER_MANT;
    memcpy(&x, &bits, sizeof x);
    return x;
}

/* ldexp(x, k), exact as libm's: x * 2**k rounds once, like ldexp, when
 * 2**k is normal. */
static LADDER_T LADDER_NAME(scale)(LADDER_T x, int64_t k)
{
    if (k < LADDER_EMIN || k > LADDER_EMAX)
        return LADDER_LDEXP(x, (int)(k < -4096 ? -4096
                                     : k > 4096 ? 4096 : k));
    return x * LADDER_NAME(pow2)(k);
}

/*
 * GroupedSummation.finalize, Equation 1: per group, from the bottom
 * level up, res += s[l] * 2**(e_l - m) + c[l] * 2**(e_l - 2) over the
 * levels with e_l = e0 - l*W >= emin, each operation rounded in the
 * table's format and in this order; then +inf, -inf and NaN override
 * (NaN also for +inf beside -inf).  `state` is e0, s[0..L), c[0..L),
 * then the NaN, +inf and -inf counters.
 */
void LADDER_NAME(ladder_finalize)(int64_t ngroups, int64_t nlevels,
                                  int64_t m, int64_t w, int64_t emin,
                                  void *const *state, LADDER_T *out)
{
    const int64_t *e0 = state[0];
    const int64_t *nan = state[1 + 2 * nlevels];
    const int64_t *pos = state[2 + 2 * nlevels];
    const int64_t *neg = state[3 + 2 * nlevels];
    for (int64_t g = 0; g < ngroups; g++) {
        LADDER_T res = 0;
        if (e0[g] > EMPTY_E0) {
            for (int64_t l = nlevels - 1; l >= 0; l--) {
                const int64_t e = e0[g] - l * w;
                LADDER_T s, c, offset, carries;
                if (e < emin)
                    continue;
                s = LADDER_ROUND((LADDER_T)((const int64_t *)state[1 + l])[g]);
                c = LADDER_ROUND(
                    (LADDER_T)((const int64_t *)state[1 + nlevels + l])[g]);
                offset = LADDER_ROUND(LADDER_NAME(scale)(s, e - m));
                carries = LADDER_ROUND(
                    c * LADDER_ROUND(LADDER_NAME(pow2)(e - 2)));
                res = LADDER_ROUND(res + LADDER_ROUND(offset + carries));
            }
        }
        if (pos[g] > 0)
            res = INFINITY;
        if (neg[g] > 0)
            res = -INFINITY;
        if (nan[g] > 0 || (pos[g] > 0 && neg[g] > 0))
            res = NAN;
        out[g] = res;
    }
}

#endif
