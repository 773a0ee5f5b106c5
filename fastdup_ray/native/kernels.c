/* Native extract, sign and verify kernels, loaded through ctypes by
 * fastdup_ray/native/__init__.py. Each function is bit-identical to the
 * kernel it replaced, kept as a reference in tests/kernel_refs.py:
 * tests/test_kernel_properties.py pins the sign and verify kernels to
 * their numpy references, tests/test_extract.py the HTML text kernel to
 * the extractor built on the stdlib html.parser. Integer arithmetic only, so every ISA
 * clone computes the same bits. */

#include <stdint.h>
#include <string.h>
#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#if defined(__x86_64__) && !defined(FASTDUP_NO_CLONES)
#define ISA_CLONES \
    __attribute__((target_clones("arch=x86-64-v4", "arch=x86-64-v3", "default")))
#else
#define ISA_CLONES
#endif

/* FNV-64 prime: the base of the hash-v2 polynomial. */
#define HASH_BASE 0x100000001B3ULL

static inline uint64_t mix64(uint64_t x)
{
    x ^= x >> 33;
    x *= 0xFF51AFD7ED558CCDULL;
    x ^= x >> 33;
    x *= 0xC4CEB9FE1A85EC53ULL;
    x ^= x >> 33;
    return x;
}

/* The k-gram hash (mix64(sum byte_i * B^(k-1-i)) >> 32, mod 2^64) of
 * every window inside each doc data[offs[d]:offs[d+1]], written
 * back to back into `out`; a doc shorter than k has no window. */
void shingle_hashes(const uint8_t *data, const int64_t *offs, int64_t n_docs,
                    int64_t k, uint32_t *out)
{
    uint64_t bk = 1; /* B^k: the weight a byte has once it leaves the window */
    for (int64_t i = 0; i < k; i++)
        bk *= HASH_BASE;
    for (int64_t d = 0; d < n_docs; d++) {
        const uint8_t *p = data + offs[d];
        int64_t len = offs[d + 1] - offs[d];
        if (len < k)
            continue;
        uint64_t h = 0;
        for (int64_t i = 0; i < k; i++)
            h = h * HASH_BASE + p[i];
        *out++ = (uint32_t)(mix64(h) >> 32);
        for (int64_t i = k; i < len; i++) {
            h = h * HASH_BASE + p[i] - p[i - k] * bk;
            *out++ = (uint32_t)(mix64(h) >> 32);
        }
    }
}

/* Permutations per pass over a doc's shingles (32 measured fastest of 16,
 * 32, 64 and 128 on x86-64-v3 and -v4). */
#define PERM_BLOCK 32

/* sig[d * num_perms + p] = min over doc d's hashes x of
 * ((a[p] * x + b[p]) mod 2^64) >> 32, or 0xFFFFFFFF for a doc without
 * hashes. */
ISA_CLONES
void minhash(const uint32_t *hashes, const int64_t *offs, int64_t n_docs,
             const uint64_t *a, const uint64_t *b, int64_t num_perms,
             uint32_t *sig)
{
    for (int64_t p0 = 0; p0 < num_perms; p0 += PERM_BLOCK) {
        int64_t m = num_perms - p0 < PERM_BLOCK ? num_perms - p0 : PERM_BLOCK;
        uint64_t aa[PERM_BLOCK], bb[PERM_BLOCK];
        for (int j = 0; j < PERM_BLOCK; j++) {
            aa[j] = j < m ? a[p0 + j] : 0;
            bb[j] = j < m ? b[p0 + j] : 0;
        }
        for (int64_t d = 0; d < n_docs; d++) {
            uint64_t mins[PERM_BLOCK];
            for (int j = 0; j < PERM_BLOCK; j++)
                mins[j] = UINT64_MAX;
            for (int64_t s = offs[d]; s < offs[d + 1]; s++) {
                uint64_t x = hashes[s];
                for (int j = 0; j < PERM_BLOCK; j++) {
                    uint64_t v = aa[j] * x + bb[j];
                    mins[j] = v < mins[j] ? v : mins[j];
                }
            }
            uint32_t *row = sig + d * num_perms + p0;
            for (int64_t j = 0; j < m; j++)
                row[j] = (uint32_t)(mins[j] >> 32);
        }
    }
}

/* counts[r] = |A_r & B_r| for the sorted-unique ranges
 * A_r = va[sa[r]:ea[r]] and B_r = vb[sb[r]:eb[r]], by a branch-free
 * merge. With SSE2 it steps four values a side at a time: all 16 pairs
 * of two blocks are compared, and the block with the smaller last value
 * (both on a tie) is consumed, so every shared value is counted once. */
void intersect_counts(const uint32_t *va, const int64_t *sa, const int64_t *ea,
                      const uint32_t *vb, const int64_t *sb, const int64_t *eb,
                      int64_t n, int64_t *counts)
{
    for (int64_t r = 0; r < n; r++) {
        const uint32_t *pa = va + sa[r], *enda = va + ea[r];
        const uint32_t *pb = vb + sb[r], *endb = vb + eb[r];
        int64_t c = 0;
#if defined(__SSE2__)
        while (enda - pa >= 4 && endb - pb >= 4) {
            __m128i x = _mm_loadu_si128((const __m128i *)pa);
            __m128i y = _mm_loadu_si128((const __m128i *)pb);
            __m128i eq = _mm_or_si128(
                _mm_or_si128(_mm_cmpeq_epi32(x, y),
                             _mm_cmpeq_epi32(x, _mm_shuffle_epi32(y, 0x39))),
                _mm_or_si128(_mm_cmpeq_epi32(x, _mm_shuffle_epi32(y, 0x4E)),
                             _mm_cmpeq_epi32(x, _mm_shuffle_epi32(y, 0x93))));
            c += __builtin_popcount(_mm_movemask_ps(_mm_castsi128_ps(eq)));
            uint32_t amax = pa[3], bmax = pb[3];
            pa += (amax <= bmax) * 4;
            pb += (bmax <= amax) * 4;
        }
#endif
        while (pa < enda && pb < endb) {
            uint32_t x = *pa, y = *pb;
            c += x == y;
            pa += x <= y;
            pb += y <= x;
        }
        counts[r] = c;
    }
}

/* ------------------------------------------------------------------ */
/* HTML text extraction: CPython 3.11's html.parser parser class
 * (convert_charrefs=True, feed then close) driving the text extractor
 * kept as the test oracle in tests/kernel_refs.py. Each page is strict
 * UTF-8; positions are byte offsets into it, and the regexes' character
 * classes are applied to whole code points. feed() followed by close()
 * processes a page exactly as one goahead(end=1) pass does, so that is
 * what `scan` runs.
 *
 * Data reaches the extractor in the parser's chunks: a chunk is kept
 * (skip depth 0) unless it is whitespace-only, and a block tag closes
 * the current block. Entities are never decoded here: a kept chunk that
 * contains '&' needs html.unescape, so `html_text` reports the page as
 * HT_DEFER and `html_events` lists its chunks for the caller to finish.
 * Every chunk and attribute value the parser unescapes is checked for a
 * decimal charref longer than int()'s digit limit, on which unescape
 * raises and the page is a decode error. */

enum { HT_OK, HT_EMPTY, HT_DECODE, HT_NO_TEXT, HT_DEFER };
enum { EV_RAW, EV_UNESCAPE, EV_FLUSH };

/* Scanner results below zero: -1 is the parser's "incomplete". */
#define R_INCOMPLETE (-1)
#define R_RAISE (-2)    /* the parser raises: a decode error */
#define R_DEFER (-3)    /* a kept chunk needs html.unescape */
#define R_OVERFLOW (-4) /* output buffer too small */

/* str.isspace, which is also the \s of Python's str regexes. */
static int py_isspace(uint32_t c)
{
    if (c < 0x80)
        return (c >= 0x09 && c <= 0x0D) || (c >= 0x1C && c <= 0x20);
    return c == 0x85 || c == 0xA0 || c == 0x1680 || (c >= 0x2000 && c <= 0x200A) ||
           c == 0x2028 || c == 0x2029 || c == 0x202F || c == 0x205F || c == 0x3000;
}

/* out[c] = str.isspace(chr(c)) for c < n. */
void html_space_table(int64_t n, uint8_t *out)
{
    for (int64_t c = 0; c < n; c++)
        out[c] = (uint8_t)py_isspace((uint32_t)c);
}

static inline int cp_len(uint8_t b)
{
    return b < 0x80 ? 1 : b < 0xE0 ? 2 : b < 0xF0 ? 3 : 4;
}

static inline uint32_t cp_at(const uint8_t *s, int64_t p)
{
    uint8_t b = s[p];
    if (b < 0x80)
        return b;
    if (b < 0xE0)
        return ((uint32_t)(b & 0x1F) << 6) | (s[p + 1] & 0x3F);
    if (b < 0xF0)
        return ((uint32_t)(b & 0x0F) << 12) | ((uint32_t)(s[p + 1] & 0x3F) << 6) |
               (s[p + 2] & 0x3F);
    return ((uint32_t)(b & 0x07) << 18) | ((uint32_t)(s[p + 1] & 0x3F) << 12) |
           ((uint32_t)(s[p + 2] & 0x3F) << 6) | (s[p + 3] & 0x3F);
}

/* Strict UTF-8, as bytes.decode("utf-8") accepts it: no overlong forms,
 * surrogates, code points above U+10FFFF or truncated sequences. */
static int utf8_valid(const uint8_t *s, int64_t n)
{
    int64_t i = 0;
    while (i < n) {
        while (i + 8 <= n) {
            uint64_t w;
            memcpy(&w, s + i, 8);
            if (w & 0x8080808080808080ULL)
                break;
            i += 8;
        }
        if (i >= n)
            break;
        uint8_t b = s[i];
        if (b < 0x80) {
            i++;
        } else if (b < 0xC2) {
            return 0;
        } else if (b < 0xE0) {
            if (i + 1 >= n || (s[i + 1] & 0xC0) != 0x80)
                return 0;
            i += 2;
        } else if (b < 0xF0) {
            if (i + 2 >= n || (s[i + 1] & 0xC0) != 0x80 || (s[i + 2] & 0xC0) != 0x80 ||
                (b == 0xE0 && s[i + 1] < 0xA0) || (b == 0xED && s[i + 1] >= 0xA0))
                return 0;
            i += 3;
        } else if (b < 0xF5) {
            if (i + 3 >= n || (s[i + 1] & 0xC0) != 0x80 || (s[i + 2] & 0xC0) != 0x80 ||
                (s[i + 3] & 0xC0) != 0x80 || (b == 0xF0 && s[i + 1] < 0x90) ||
                (b == 0xF4 && s[i + 1] >= 0x90))
                return 0;
            i += 4;
        } else {
            return 0;
        }
    }
    return 1;
}

typedef struct {
    const uint8_t *s;
    int64_t n;
    int64_t digit_limit; /* sys.get_int_max_str_digits(); 0: none */
    int64_t skip;        /* the extractor's skip depth */
    int cdata;           /* T_SCRIPT or T_STYLE inside raw text, else 0 */
    /* html_text: the page's text is written to out[o..] */
    uint8_t *out;
    int64_t o, cap;
    int in_block;    /* the current block has a part */
    int64_t nblocks; /* blocks written */
    /* html_events: (kind, start, end) triples instead, when ev != NULL */
    int64_t *ev;
    int64_t nev, evcap;
} scan_t;

static inline int is_alpha(uint8_t c)
{
    return (uint8_t)((c | 0x20) - 'a') < 26;
}

static inline int is_digit(uint8_t c)
{
    return (uint8_t)(c - '0') < 10;
}

static inline uint8_t lower(uint8_t c)
{
    return (uint8_t)(c - 'A') < 26 ? c + 32 : c;
}

/* Byte length of the whitespace code point at p, 0 when there is none. */
static inline int ws_len(const scan_t *st, int64_t p)
{
    if (p >= st->n)
        return 0;
    return py_isspace(cp_at(st->s, p)) ? cp_len(st->s[p]) : 0;
}

static inline int64_t skip_ws(const scan_t *st, int64_t p)
{
    int w;
    while ((w = ws_len(st, p)))
        p += w;
    return p;
}

static inline int64_t prev_cp(const scan_t *st, int64_t p)
{
    do
        p--;
    while ((st->s[p] & 0xC0) == 0x80);
    return p;
}

static int all_space(const scan_t *st, int64_t a, int64_t b)
{
    while (a < b) {
        int w = ws_len(st, a);
        if (!w)
            return 0;
        a += w;
    }
    return 1;
}

/* html.unescape raises on "&#" followed by more decimal digits than
 * int() converts. */
static int too_many_digits(const scan_t *st, int64_t a, int64_t b)
{
    if (st->digit_limit <= 0)
        return 0;
    const uint8_t *s = st->s;
    const uint8_t *amp;
    while ((amp = memchr(s + a, '&', (size_t)(b - a)))) {
        int64_t p = amp - s + 1;
        if (p < b && s[p] == '#') {
            int64_t q = p + 1;
            while (q < b && is_digit(s[q]))
                q++;
            if (q - p - 1 > st->digit_limit)
                return 1;
        }
        a = p;
    }
    return 0;
}

static int event(scan_t *st, int64_t kind, int64_t a, int64_t b)
{
    if (st->nev + 3 > st->evcap)
        return R_OVERFLOW;
    st->ev[st->nev++] = kind;
    st->ev[st->nev++] = a;
    st->ev[st->nev++] = b;
    return 0;
}

/* the extractor's block flush */
static int flush(scan_t *st)
{
    if (st->ev)
        return st->nev && st->ev[st->nev - 3] != EV_FLUSH ? event(st, EV_FLUSH, 0, 0) : 0;
    if (st->in_block) {
        st->in_block = 0;
        st->nblocks++;
    }
    return 0;
}

/* handle_data(s[a:b]), unescaped first when `unesc` (outside raw text). */
static int data(scan_t *st, int64_t a, int64_t b, int unesc)
{
    if (a >= b)
        return 0;
    int amp = unesc && memchr(st->s + a, '&', (size_t)(b - a)) != NULL;
    if (amp && too_many_digits(st, a, b))
        return R_RAISE;
    if (st->skip > 0)
        return 0;
    if (amp)
        return st->ev ? event(st, EV_UNESCAPE, a, b) : R_DEFER;
    if (all_space(st, a, b))
        return 0;
    if (st->ev)
        return event(st, EV_RAW, a, b);
    int sep = !st->in_block && st->nblocks;
    if (st->o + sep + (b - a) > st->cap)
        return R_OVERFLOW;
    if (sep)
        st->out[st->o++] = '\n';
    st->in_block = 1;
    memcpy(st->out + st->o, st->s + a, (size_t)(b - a));
    st->o += b - a;
    return 0;
}

#define T_SKIP 1
#define T_BLOCK 2
#define T_SCRIPT 4
#define T_STYLE 8

static const struct {
    const char *name;
    int kind;
} TAGS[] = {
    {"script", T_SKIP | T_SCRIPT}, {"style", T_SKIP | T_STYLE}, {"nav", T_SKIP},
    {"footer", T_SKIP}, {"header", T_SKIP}, {"aside", T_SKIP}, {"noscript", T_SKIP},
    {"head", T_SKIP}, {"title", T_SKIP}, {"p", T_BLOCK}, {"div", T_BLOCK},
    {"article", T_BLOCK}, {"section", T_BLOCK}, {"li", T_BLOCK}, {"h1", T_BLOCK},
    {"h2", T_BLOCK}, {"h3", T_BLOCK}, {"h4", T_BLOCK}, {"td", T_BLOCK}, {"pre", T_BLOCK},
};

/* The T_* bits of the tag whose name is s[a:b] after str.lower. Of the
 * non-ASCII code points only the Kelvin sign lowers to ASCII ('k'), and
 * no tag name here has a 'k', so a non-ASCII name matches none. */
static int tag_kind(const scan_t *st, int64_t a, int64_t b)
{
    char name[9];
    if (b - a > 8)
        return 0;
    for (int64_t p = a; p < b; p++) {
        if (st->s[p] >= 0x80)
            return 0;
        name[p - a] = (char)lower(st->s[p]);
    }
    name[b - a] = 0;
    for (size_t t = 0; t < sizeof TAGS / sizeof TAGS[0]; t++)
        if (!strcmp(name, TAGS[t].name))
            return TAGS[t].kind;
    return 0;
}

static int starttag(scan_t *st, int kind)
{
    if (kind & T_SKIP)
        st->skip++;
    else if (kind & T_BLOCK)
        return flush(st);
    return 0;
}

static int endtag(scan_t *st, int kind)
{
    if (kind & T_SKIP) {
        if (st->skip > 0)
            st->skip--;
    } else if (kind & T_BLOCK) {
        return flush(st);
    }
    return 0;
}

/* End of the tag name run [^\t\n\r\f />\x00]* after its first letter at p. */
static int64_t name_end(const scan_t *st, int64_t p)
{
    for (p++; p < st->n; p++) {
        uint8_t c = st->s[p];
        if (c == '\t' || c == '\n' || c == '\r' || c == '\f' || c == ' ' || c == '/' ||
            c == '>' || c == 0)
            break;
    }
    return p;
}

/* (?:\s|/(?!>))* */
static int64_t skip_ws_slash(const scan_t *st, int64_t p)
{
    for (;;) {
        int w;
        if (p < st->n && st->s[p] == '/' && !(p + 1 < st->n && st->s[p + 1] == '>'))
            p++;
        else if ((w = ws_len(st, p)))
            p += w;
        else
            return p;
    }
}

/* End of (?<=['"\s/])[^\s/>][^\s/=>]* at p, or -1 when it does not match. */
static int64_t attr_name_end(const scan_t *st, int64_t p)
{
    const uint8_t *s = st->s;
    if (p >= st->n)
        return -1;
    int64_t q = prev_cp(st, p);
    if (!(s[q] == '\'' || s[q] == '"' || s[q] == '/' || py_isspace(cp_at(s, q))))
        return -1;
    if (s[p] == '/' || s[p] == '>' || ws_len(st, p))
        return -1;
    for (p += cp_len(s[p]); p < st->n; p += cp_len(s[p]))
        if (s[p] == '/' || s[p] == '=' || s[p] == '>' || ws_len(st, p))
            break;
    return p;
}

/* \s*=+\s*('[^']*'|"[^"]*"|(?!['"])[^>\s]*) at q as sre's backtracking
 * matches it: its end, or -1 when it cannot match. [*va, *vb) is the
 * value group. A quote without a closing quote makes sre give back one
 * whitespace character (an empty bare value before it) or else one '='
 * (a bare value starting at it). */
static int64_t attr_value(const scan_t *st, int64_t q, int64_t *va, int64_t *vb)
{
    const uint8_t *s = st->s;
    int64_t n = st->n;
    int64_t r = skip_ws(st, q);
    if (r >= n || s[r] != '=')
        return -1;
    int64_t e = r;
    while (e < n && s[e] == '=')
        e++;
    int64_t v = skip_ws(st, e);
    if (v < n && (s[v] == '\'' || s[v] == '"')) {
        const uint8_t *c = memchr(s + v + 1, s[v], (size_t)(n - v - 1));
        if (c) {
            *va = v;
            *vb = c - s + 1;
            return *vb;
        }
        if (v > e) {
            *va = *vb = prev_cp(st, v);
            return *vb;
        }
        if (e - r < 2)
            return -1;
        v = e - 1;
    }
    int64_t t = v;
    while (t < n && s[t] != '>' && !ws_len(st, t))
        t += cp_len(s[t]);
    *va = v;
    *vb = t;
    return t;
}

/* locatestarttagend_tolerant.match(rawdata, i).end() */
static int64_t locate_starttag_end(const scan_t *st, int64_t i)
{
    int64_t p = name_end(st, i + 1);
    for (;;) {
        int w;
        if (p < st->n && st->s[p] == '/')
            p++;
        else if ((w = ws_len(st, p)))
            p += w;
        else
            break;
    }
    int64_t q, va, vb;
    while ((q = attr_name_end(st, p)) >= 0) {
        int64_t v = attr_value(st, q, &va, &vb);
        if (v >= 0)
            q = skip_ws(st, v);
        p = skip_ws_slash(st, q);
    }
    return skip_ws(st, p);
}

/* html.parser's parse_starttag */
static int64_t parse_starttag(scan_t *st, int64_t i)
{
    const uint8_t *s = st->s;
    int64_t n = st->n;
    /* check_for_whole_start_tag */
    int64_t j = locate_starttag_end(st, i), endpos;
    if (j >= n)
        return R_INCOMPLETE;
    if (s[j] == '>')
        endpos = j + 1;
    else if (s[j] == '/')
        endpos = j + 1 < n && s[j + 1] == '>' ? j + 2 : R_INCOMPLETE;
    else if (is_alpha(s[j]) || s[j] == '=')
        endpos = R_INCOMPLETE;
    else
        endpos = j;
    if (endpos < 0)
        return endpos;
    int64_t ne = name_end(st, i + 1);
    int kind = tag_kind(st, i + 1, ne);
    /* the attribute loop, for where it stops and the values it unescapes */
    int64_t k = skip_ws_slash(st, ne), q, va, vb;
    while (k < endpos && (q = attr_name_end(st, k)) >= 0) {
        if (attr_value(st, q, &va, &vb) >= 0) {
            q = vb;
            if (memchr(s + va, '&', (size_t)(vb - va)) && too_many_digits(st, va, vb))
                return R_RAISE;
        }
        k = skip_ws_slash(st, q);
    }
    /* rawdata[k:endpos].strip() in (">", "/>") */
    int64_t a = k, b = endpos;
    while (a < b && ws_len(st, a))
        a += ws_len(st, a);
    while (b > a && ws_len(st, prev_cp(st, b)))
        b = prev_cp(st, b);
    int rc;
    if (b - a == 1 && s[a] == '>') {
        if ((rc = starttag(st, kind)))
            return rc;
        st->cdata = kind & (T_SCRIPT | T_STYLE);
    } else if (b - a == 2 && s[a] == '/' && s[a + 1] == '>') {
        if ((rc = starttag(st, kind)) || (rc = endtag(st, kind)))
            return rc;
    } else if ((rc = data(st, i, endpos, 0))) {
        return rc;
    }
    return endpos;
}

/* html.parser's parse_endtag */
static int64_t parse_endtag(scan_t *st, int64_t i)
{
    const uint8_t *s = st->s;
    int64_t n = st->n;
    const uint8_t *g = memchr(s + i + 1, '>', (size_t)(n - i - 1));
    if (!g)
        return R_INCOMPLETE;
    int64_t gt = g - s + 1, rc;
    /* endtagfind: </\s*([a-zA-Z][-.a-zA-Z0-9:_]*)\s*> */
    int64_t a = skip_ws(st, i + 2);
    if (a < n && is_alpha(s[a])) {
        int64_t b = a + 1;
        while (b < n && (is_alpha(s[b]) || is_digit(s[b]) || s[b] == '-' || s[b] == '.' ||
                         s[b] == ':' || s[b] == '_'))
            b++;
        int64_t p = skip_ws(st, b);
        if (p < n && s[p] == '>') {
            int kind = tag_kind(st, a, b);
            if (st->cdata && !(kind & st->cdata))
                return (rc = data(st, i, gt, 0)) ? rc : gt;
            st->cdata = 0;
            return (rc = endtag(st, kind)) ? rc : gt;
        }
    }
    if (st->cdata)
        return (rc = data(st, i, gt, 0)) ? rc : gt;
    /* tagfind_tolerant's name, else '</>' or a bogus comment */
    if (is_alpha(s[i + 2]))
        return (rc = endtag(st, tag_kind(st, i + 2, name_end(st, i + 2)))) ? rc : gt;
    return gt;
}

static int64_t find_byte(const scan_t *st, int64_t p, uint8_t c)
{
    if (p >= st->n)
        return -1;
    const uint8_t *f = memchr(st->s + p, c, (size_t)(st->n - p));
    return f ? f - st->s : -1;
}

static int64_t after_byte(const scan_t *st, int64_t p, uint8_t c)
{
    int64_t f = find_byte(st, p, c);
    return f < 0 ? R_INCOMPLETE : f + 1;
}

/* _markupbase's --\s*> search from p: the end of the first match. */
static int64_t comment_close(const scan_t *st, int64_t p)
{
    for (int64_t d; (d = find_byte(st, p, '-')) >= 0; p = d + 1) {
        if (d + 1 < st->n && st->s[d + 1] == '-') {
            int64_t q = skip_ws(st, d + 2);
            if (q < st->n && st->s[q] == '>')
                return q + 1;
        }
    }
    return R_INCOMPLETE;
}

/* ]\s*]\s*> (twice) or ]\s*> (once) searched from p. */
static int64_t section_close(const scan_t *st, int64_t p, int twice)
{
    for (int64_t d; (d = find_byte(st, p, ']')) >= 0; p = d + 1) {
        int64_t q = skip_ws(st, d + 1);
        if (twice) {
            if (q >= st->n || st->s[q] != ']')
                continue;
            q = skip_ws(st, q + 1);
        }
        if (q < st->n && st->s[q] == '>')
            return q + 1;
    }
    return R_INCOMPLETE;
}

/* ParserBase.parse_marked_section: `<![` + a name from
 * {temp, cdata, ignore, include, rcdata} or {if, else, endif}; any other
 * name, or none, raises. */
static int64_t parse_marked_section(const scan_t *st, int64_t i)
{
    static const char *const std_names[] = {"temp", "cdata", "ignore", "include", "rcdata"};
    static const char *const ms_names[] = {"if", "else", "endif"};
    const uint8_t *s = st->s;
    int64_t a = i + 3, b = a + 1;
    if (a == st->n)
        return R_INCOMPLETE;
    if (!is_alpha(s[a]))
        return R_RAISE;
    while (b < st->n && (is_alpha(s[b]) || is_digit(s[b]) || s[b] == '-' || s[b] == '_' ||
                         s[b] == '.'))
        b++;
    if (skip_ws(st, b) == st->n)
        return R_INCOMPLETE;
    char name[8];
    if (b - a >= (int64_t)sizeof name)
        return R_RAISE;
    for (int64_t p = a; p < b; p++)
        name[p - a] = (char)lower(s[p]);
    name[b - a] = 0;
    for (int t = 0; t < 5; t++)
        if (!strcmp(name, std_names[t]))
            return section_close(st, i + 3, 1);
    for (int t = 0; t < 3; t++)
        if (!strcmp(name, ms_names[t]))
            return section_close(st, i + 3, 0);
    return R_RAISE;
}

/* html.parser's parse_html_declaration, after `<!` that is not `<!--`. */
static int64_t parse_html_declaration(const scan_t *st, int64_t i)
{
    static const char doctype[] = "<!doctype";
    if (i + 2 < st->n && st->s[i + 2] == '[')
        return parse_marked_section(st, i);
    int is_doctype = i + 9 <= st->n;
    for (int t = 2; is_doctype && t < 9; t++)
        is_doctype = lower(st->s[i + t]) == (uint8_t)doctype[t];
    return after_byte(st, is_doctype ? i + 9 : i + 2, '>');
}

/* Start of the first raw-text end tag </\s*name\s*> at or after p with
 * the name in ASCII letters of any case, or -1. The parser searches with
 * re.I, which also matches U+017F for 's' and U+0130 and U+0131 for 'i',
 * but such a tag fails endtagfind and only drops raw text up to its '>':
 * skipping it finds the same end. */
static int64_t cdata_end(const scan_t *st, int64_t p, const char *name)
{
    const uint8_t *s = st->s;
    for (int64_t lt; (lt = find_byte(st, p, '<')) >= 0; p = lt + 1) {
        if (lt + 1 >= st->n || s[lt + 1] != '/')
            continue;
        int64_t q = skip_ws(st, lt + 2);
        const char *c = name;
        for (; *c && q < st->n && lower(s[q]) == (uint8_t)*c; c++)
            q++;
        if (*c)
            continue;
        q = skip_ws(st, q);
        if (q < st->n && s[q] == '>')
            return lt;
    }
    return -1;
}

/* html.parser's goahead(end=1) over the page: 0, or an R_* code. */
static int64_t scan(scan_t *st)
{
    const uint8_t *s = st->s;
    int64_t n = st->n, i = 0, j, k, rc;
    while (i < n) {
        if (!st->cdata) {
            j = find_byte(st, i, '<');
            if (j < 0)
                j = n;
        } else if ((j = cdata_end(st, i, st->cdata == T_SCRIPT ? "script" : "style")) < 0) {
            break; /* unclosed raw text swallows the rest of the page */
        }
        if ((rc = data(st, i, j, !st->cdata)))
            return rc;
        i = j;
        if (i == n)
            break;
        if (i + 1 < n && is_alpha(s[i + 1]))
            k = parse_starttag(st, i);
        else if (i + 1 < n && s[i + 1] == '/')
            k = parse_endtag(st, i);
        else if (i + 3 < n && s[i + 1] == '!' && s[i + 2] == '-' && s[i + 3] == '-')
            k = comment_close(st, i + 4);
        else if (i + 1 < n && s[i + 1] == '?')
            k = after_byte(st, i + 2, '>');
        else if (i + 1 < n && s[i + 1] == '!')
            k = parse_html_declaration(st, i);
        else /* a '<' that starts nothing, also as the page's last char */
            k = (rc = data(st, i, i + 1, 0)) ? rc : i + 1;
        if (k == R_INCOMPLETE) {
            /* close(): the construct's text up to the next '>', else the
             * next '<', else the '<' alone becomes data */
            if ((k = after_byte(st, i + 1, '>')) < 0 && (k = find_byte(st, i + 1, '<')) < 0)
                k = i + 1;
            if ((rc = data(st, i, k, !st->cdata)))
                return rc;
        } else if (k < 0) {
            return k;
        }
        i = k;
    }
    return flush(st);
}

/* Text of each page data[offs[d]:offs[d+1]], written back to back into
 * `out` (room for offs[n_docs] - offs[0] bytes) with out_offs[d] the
 * start of page d's text and out_offs[n_docs] the end; its length in
 * code points goes to n_chars[d] and an HT_* code to status[d]. Only
 * HT_OK pages have text. Returns 0, or -1 when `out` is too small. */
int64_t html_text(const uint8_t *data, const int64_t *offs, int64_t n_docs,
                  int64_t digit_limit, uint8_t *out, int64_t *out_offs, int64_t *n_chars,
                  int8_t *status)
{
    int64_t o = 0, cap = offs[n_docs] - offs[0];
    for (int64_t d = 0; d < n_docs; d++) {
        const uint8_t *s = data + offs[d];
        int64_t n = offs[d + 1] - offs[d];
        out_offs[d] = o;
        n_chars[d] = 0;
        if (n == 0) {
            status[d] = HT_EMPTY;
            continue;
        }
        if (!utf8_valid(s, n)) {
            status[d] = HT_DECODE;
            continue;
        }
        scan_t st = {.s = s, .n = n, .digit_limit = digit_limit, .out = out, .o = o, .cap = cap};
        int64_t rc = scan(&st);
        if (rc == R_OVERFLOW)
            return -1;
        if (rc == R_RAISE) {
            status[d] = HT_DECODE;
        } else if (rc == R_DEFER) {
            status[d] = HT_DEFER;
        } else if (!st.nblocks) {
            status[d] = HT_NO_TEXT;
        } else {
            status[d] = HT_OK;
            for (int64_t p = o; p < st.o; p++)
                n_chars[d] += (out[p] & 0xC0) != 0x80;
            o = st.o;
        }
    }
    out_offs[n_docs] = o;
    return 0;
}

/* The extractor's input for one page s[0:n]: (kind, start, end) triples
 * in `ev` (room for `cap` int64s): EV_RAW and EV_UNESCAPE chunks the
 * extractor keeps, the latter to be unescaped and dropped when that
 * leaves only whitespace, and EV_FLUSH block ends. Returns the number of
 * int64s written, -1 for a decode error, or -2 when `ev` is too small. */
int64_t html_events(const uint8_t *s, int64_t n, int64_t digit_limit, int64_t *ev,
                    int64_t cap)
{
    if (!utf8_valid(s, n))
        return -1;
    scan_t st = {.s = s, .n = n, .digit_limit = digit_limit, .ev = ev, .evcap = cap};
    int64_t rc = scan(&st);
    return rc == R_RAISE ? -1 : rc ? -2 : st.nev;
}
