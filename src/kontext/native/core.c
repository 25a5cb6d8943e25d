/* Core engine: key sets, spec grammar, layer state, templates, lookup.
 * No globals, no IO; every function is safe to call from the preload shim.
 * See core.h for the contract notes.
 */

#include "core.h"

#include <limits.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

/* ------------------------------------------------------------------ */
/* small helpers                                                       */
/* ------------------------------------------------------------------ */

static char *kx_strndup(const char *s, size_t n) {
    char *out = (char *)malloc(n + 1);
    if (!out)
        return NULL;
    memcpy(out, s, n);
    out[n] = '\0';
    return out;
}

static void kx_set_error(kx_error *err, int line, int kind, const char *msg) {
    if (!err)
        return;
    err->line = line;
    err->kind = kind;
    snprintf(err->message, sizeof(err->message), "%s", msg);
}

static int kx_is_space(char c) {
    return c == ' ' || c == '\t';
}

/* trim spaces and tabs from both ends of [*begin, *end) */
static void kx_trim(const char **begin, const char **end) {
    while (*begin < *end && kx_is_space(**begin))
        (*begin)++;
    while (*end > *begin && kx_is_space(*(*end - 1)))
        (*end)--;
}

/* growable string buffer */
typedef struct {
    char *data;
    size_t len;
    size_t cap;
} kx_buf;

static int kx_buf_push(kx_buf *buf, const char *s, size_t n) {
    if (buf->len + n + 1 > buf->cap) {
        size_t cap = buf->cap ? buf->cap : 128;
        while (cap < buf->len + n + 1)
            cap *= 2;
        char *data = (char *)realloc(buf->data, cap);
        if (!data)
            return KX_E_NOMEM;
        buf->data = data;
        buf->cap = cap;
    }
    memcpy(buf->data + buf->len, s, n);
    buf->len += n;
    buf->data[buf->len] = '\0';
    return KX_OK;
}

static void kx_buf_free(kx_buf *buf) {
    free(buf->data);
    buf->data = NULL;
    buf->len = buf->cap = 0;
}

/* ------------------------------------------------------------------ */
/* names                                                               */
/* ------------------------------------------------------------------ */

static int kx_name_valid_mem(const char *s, size_t n) {
    size_t seg = 0;
    if (n == 0)
        return 0;
    for (size_t i = 0; i < n; i++) {
        char c = s[i];
        if (c == '/') {
            if (seg == 0)
                return 0; /* leading '/' or empty segment */
            seg = 0;
            continue;
        }
        if (c == '\n' || c == '\r' || c == '=' || c == '\0')
            return 0;
        seg++;
    }
    return seg > 0; /* no trailing '/' */
}

int kx_name_valid(const char *name) {
    return name != NULL && kx_name_valid_mem(name, strlen(name));
}

/* ------------------------------------------------------------------ */
/* hashing                                                             */
/* ------------------------------------------------------------------ */

#define KX_P1 0x9E3779B97F4A7C15ULL
#define KX_P2 0xC2B2AE3D27D4EB4FULL

/* one 8-byte step of a lane: a bijection of the lane for every word, and
 * the shift carries high bits down so later multiplies spread them */
static uint64_t kx_lane(uint64_t lane, uint64_t word) {
    lane = (lane ^ word) * KX_P1;
    return lane ^ (lane >> 29);
}

/* rounds over n bytes (a multiple of KX_HASH_ROUND); the lanes stay in
 * registers, as data may alias them */
static void kx_hash_rounds(uint64_t lane[KX_HASH_LANES], const unsigned char *p, size_t n) {
    uint64_t l[KX_HASH_LANES];
    memcpy(l, lane, sizeof l);
    for (const unsigned char *end = p + n; p < end; p += KX_HASH_ROUND) {
        uint64_t w[KX_HASH_LANES];
        memcpy(w, p, sizeof w);
#pragma GCC unroll 8
        for (int i = 0; i < KX_HASH_LANES; i++)
            l[i] = kx_lane(l[i], w[i]);
    }
    memcpy(lane, l, sizeof l);
}

void kx_hash_init(kx_hasher *h) {
    memset(h, 0, sizeof *h);
    for (int i = 0; i < KX_HASH_LANES; i++)
        h->lane[i] = KX_P2 * (uint64_t)(i + 1);
}

void kx_hash_update(kx_hasher *h, const void *data, size_t n) {
    const unsigned char *p = (const unsigned char *)data;
    h->len += n;
    if (h->npend) {
        size_t take = n < KX_HASH_ROUND - h->npend ? n : KX_HASH_ROUND - h->npend;
        memcpy(h->pend + h->npend, p, take);
        h->npend += take;
        p += take;
        n -= take;
        if (h->npend < KX_HASH_ROUND)
            return;
        kx_hash_rounds(h->lane, h->pend, KX_HASH_ROUND);
        h->npend = 0;
    }
    size_t whole = n - n % KX_HASH_ROUND;
    kx_hash_rounds(h->lane, p, whole);
    p += whole;
    n -= whole;
    memcpy(h->pend, p, n);
    h->npend = n;
}

uint64_t kx_hash_final(const kx_hasher *h) {
    uint64_t lane[KX_HASH_LANES];
    memcpy(lane, h->lane, sizeof lane);
    if (h->npend) {
        unsigned char last[KX_HASH_ROUND] = {0};
        memcpy(last, h->pend, h->npend);
        kx_hash_rounds(lane, last, KX_HASH_ROUND);
    }
    uint64_t x = h->len * KX_P2;
    for (int i = 0; i < KX_HASH_LANES; i++)
        x = kx_lane(x, lane[i]);
    x ^= x >> 33; /* MurmurHash3's finalizer */
    x *= 0xFF51AFD7ED558CCDULL;
    x ^= x >> 33;
    x *= 0xC4CEB9FE1A85EC53ULL;
    return x ^ (x >> 33);
}

uint64_t kx_hash64(const void *data, size_t n) {
    kx_hasher h;
    kx_hash_init(&h);
    kx_hash_update(&h, data, n);
    return kx_hash_final(&h);
}

/* ------------------------------------------------------------------ */
/* key sets                                                            */
/* ------------------------------------------------------------------ */

/* The block, which is also the image file's content:
 *
 *   header | text, NUL-padded to 8 bytes | nkeys kx_key | nprops kx_prop
 *
 * The text is the spec's, cut with NULs where the parse cut it, ending in a
 * NUL; it comes first so the parse cuts it in place in the block. Integers
 * are native; `order` lets a host of the other byte order refuse the file.
 * Each offset in a kx_key or kx_prop counts from that entry (back to the
 * text, on to the property table), so a block works at any address. A
 * key's properties are contiguous in the property table; a key with none
 * points just past its predecessor's. */
#define KX_IMAGE_MAGIC "KXSPEC\0\0"
#define KX_IMAGE_VERSION 1u
#define KX_IMAGE_ORDER 0x0102030405060708ULL

typedef struct {
    char magic[8];
    uint64_t order;
    uint32_t version;
    uint32_t nkeys;
    uint32_t nprops;
    uint32_t text_len;  /* the cut text with its final NUL, padding aside */
    uint64_t size;      /* the whole block */
    uint64_t spec_len;  /* the spec text it was parsed from */
    uint64_t spec_hash; /* kx_hash64 of that text; both hashes are 0 */
    uint64_t checksum;  /* kx_hash64 of the rest; until kx_keyset_image */
} kx_image_header;

_Static_assert(sizeof(kx_image_header) == 64, "the header has no padding");

struct kx_key {
    int32_t name;
    int32_t value;
    int32_t props; /* the key's first kx_prop */
    uint32_t nprops;
};

typedef struct {
    int32_t name;
    int32_t value;
} kx_prop;

/* where the text ends and the key table starts */
static uint64_t kx_keys_at(uint64_t text_len) {
    return sizeof(kx_image_header) + ((text_len + 7) & ~(uint64_t)7);
}

static const char *kx_at(const void *entry, int32_t off) {
    return (const char *)entry + off;
}

static int32_t kx_off(const void *entry, const void *target) {
    return (int32_t)((const char *)target - (const char *)entry);
}

void kx_keyset_init(kx_keyset *ks) {
    memset(ks, 0, sizeof *ks);
}

void kx_keyset_free(kx_keyset *ks) {
    if (!ks)
        return;
    if (ks->owned)
        free((void *)ks->block);
    kx_keyset_init(ks);
}

size_t kx_keyset_sizeof(void) {
    return sizeof(kx_keyset);
}

size_t kx_keyset_len(const kx_keyset *ks) {
    return ks->len;
}

const kx_key *kx_keyset_at(const kx_keyset *ks, size_t i) {
    return i < ks->len ? &ks->keys[i] : NULL;
}

const char *kx_key_name(const kx_key *key) {
    return kx_at(key, key->name);
}

const char *kx_key_value(const kx_key *key) {
    return kx_at(key, key->value);
}

size_t kx_key_nprops(const kx_key *key) {
    return key->nprops;
}

const char *kx_key_prop(const kx_key *key, size_t i, const char **value) {
    if (i >= key->nprops)
        return NULL;
    const kx_prop *prop = (const kx_prop *)kx_at(key, key->props) + i;
    if (value)
        *value = kx_at(prop, prop->value);
    return kx_at(prop, prop->name);
}

const kx_key *kx_keyset_get(const kx_keyset *ks, const char *name) {
    size_t lo = 0, hi = ks->len;
    while (lo < hi) {
        size_t mid = lo + (hi - lo) / 2;
        int cmp = strcmp(kx_key_name(&ks->keys[mid]), name);
        if (cmp == 0)
            return &ks->keys[mid];
        if (cmp < 0)
            lo = mid + 1;
        else
            hi = mid;
    }
    return NULL;
}

const char *kx_key_meta(const kx_key *key, const char *prop) {
    const kx_prop *props = (const kx_prop *)kx_at(key, key->props);
    for (uint32_t i = 0; i < key->nprops; i++)
        if (strcmp(kx_at(&props[i], props[i].name), prop) == 0)
            return kx_at(&props[i], props[i].value);
    return NULL;
}

int kx_keyset_below(const kx_keyset *ks, const char *prefix,
                    size_t *start, size_t *end) {
    size_t plen = strlen(prefix);
    *start = *end = 0;
    if (!kx_name_valid(prefix))
        return KX_E_NAME;
    /* keys below prefix all start with "prefix/" and sort contiguously */
    size_t lo = 0, hi = ks->len;
    while (lo < hi) {
        size_t mid = lo + (hi - lo) / 2;
        const char *name = kx_key_name(&ks->keys[mid]);
        int cmp = strncmp(name, prefix, plen);
        if (cmp == 0) {
            unsigned char next = (unsigned char)name[plen]; /* strcmp compares unsigned */
            cmp = (next > '/') - (next < '/');
        }
        if (cmp < 0)
            lo = mid + 1;
        else
            hi = mid;
    }
    size_t s = lo;
    while (lo < ks->len) {
        const char *name = kx_key_name(&ks->keys[lo]);
        if (strncmp(name, prefix, plen) != 0 || name[plen] != '/')
            break;
        lo++;
    }
    *start = s;
    *end = lo;
    return KX_OK;
}

const void *kx_keyset_image(kx_keyset *ks, const char *text, size_t len, size_t *size) {
    *size = ks->size;
    if (ks->owned) { /* a parse leaves the spec hash and checksum to here */
        kx_image_header h;
        memcpy(&h, ks->block, sizeof h);
        h.spec_hash = kx_hash64(text, len);
        h.checksum = kx_hash64(ks->block + sizeof h, ks->size - sizeof h);
        memcpy((unsigned char *)ks->block, &h, sizeof h);
    }
    return ks->block;
}

/* the rule an image breaks, or NULL; only reads inside [data, data + size) */
static const char *kx_image_refusal(const unsigned char *data, size_t size, uint64_t spec_len,
                                    uint64_t spec_hash) {
    kx_image_header h;
    if (size < sizeof h)
        return "size";
    memcpy(&h, data, sizeof h);
    if (memcmp(h.magic, KX_IMAGE_MAGIC, sizeof h.magic) != 0)
        return "magic";
    if (h.version != KX_IMAGE_VERSION)
        return "version";
    if (h.order != KX_IMAGE_ORDER)
        return "order";
    int64_t text_at = sizeof h, text_end = text_at + h.text_len;
    int64_t keys_at = (int64_t)kx_keys_at(h.text_len);
    int64_t props_at = keys_at + (int64_t)h.nkeys * (int64_t)sizeof(kx_key);
    if (h.size != size || h.text_len == 0 ||
        props_at + (int64_t)h.nprops * (int64_t)sizeof(kx_prop) != (int64_t)size)
        return "size";
    if (h.spec_len != spec_len || h.spec_hash != spec_hash)
        return "stale";
    if (kx_hash64(data + sizeof h, size - sizeof h) != h.checksum)
        return "checksum";
    if (data[text_end - 1] != '\0')
        return "bounds";
    /* every string starts inside the text, which ends in a NUL; every
     * property run is whole entries of the property table */
    for (uint32_t i = 0; i < h.nprops; i++) {
        int64_t at = props_at + (int64_t)i * (int64_t)sizeof(kx_prop);
        kx_prop prop;
        memcpy(&prop, data + at, sizeof prop);
        if (at + prop.name < text_at || at + prop.name >= text_end ||
            at + prop.value < text_at || at + prop.value >= text_end)
            return "bounds";
    }
    for (uint32_t i = 0; i < h.nkeys; i++) {
        int64_t at = keys_at + (int64_t)i * (int64_t)sizeof(kx_key);
        kx_key key;
        memcpy(&key, data + at, sizeof key);
        if (at + key.name < text_at || at + key.name >= text_end || at + key.value < text_at ||
            at + key.value >= text_end)
            return "bounds";
        int64_t first = at + key.props;
        if (key.nprops && (first < props_at || (first - props_at) % (int64_t)sizeof(kx_prop) != 0 ||
                           key.nprops > h.nprops ||
                           first + (int64_t)key.nprops * (int64_t)sizeof(kx_prop) > (int64_t)size))
            return "bounds";
    }
    return NULL;
}

int kx_keyset_from_image(const void *data, size_t size, uint64_t spec_len, uint64_t spec_hash,
                         kx_keyset *out, const char **why) {
    kx_keyset_init(out);
    const char *refusal = kx_image_refusal((const unsigned char *)data, size, spec_len,
                                           spec_hash);
    if (why)
        *why = refusal;
    if (refusal)
        return KX_E_IMAGE;
    const kx_image_header *h = (const kx_image_header *)data;
    out->block = (const unsigned char *)data;
    out->size = size;
    out->keys = (const kx_key *)(out->block + kx_keys_at(h->text_len));
    out->len = h->nkeys;
    return KX_OK;
}

/* ------------------------------------------------------------------ */
/* UTF-8 validation                                                    */
/* ------------------------------------------------------------------ */

/* byte offset of the first NUL or invalid sequence, or -1 when clean;
 * a NUL would silently cut every C string built from the text */
static long kx_utf8_invalid_at(const unsigned char *s, size_t n) {
    size_t i = 0;
    while (i < n) {
        unsigned char c = s[i];
        size_t need;
        unsigned int cp;
        if (c < 0x80) {
            if (c == 0)
                return (long)i;
            i++;
            continue;
        } else if ((c & 0xE0) == 0xC0) {
            need = 1;
            cp = c & 0x1F;
            if (cp < 2)
                return (long)i; /* overlong */
        } else if ((c & 0xF0) == 0xE0) {
            need = 2;
            cp = c & 0x0F;
        } else if ((c & 0xF8) == 0xF0) {
            need = 3;
            cp = c & 0x07;
        } else {
            return (long)i;
        }
        if (i + need >= n)
            return (long)i; /* truncated sequence */
        for (size_t j = 1; j <= need; j++) {
            unsigned char cc = s[i + j];
            if ((cc & 0xC0) != 0x80)
                return (long)i;
            cp = (cp << 6) | (cc & 0x3F);
        }
        if (need == 2 && cp < 0x800)
            return (long)i;
        if (need == 3 && (cp < 0x10000 || cp > 0x10FFFF))
            return (long)i;
        if (cp >= 0xD800 && cp <= 0xDFFF)
            return (long)i;
        i += need + 1;
    }
    return -1;
}

/* ------------------------------------------------------------------ */
/* spec format                                                         */
/* ------------------------------------------------------------------ */

/* the comment begins at '#' when first on the line or after space/tab */
static size_t kx_comment_start(const char *line, size_t n) {
    for (size_t i = 0; i < n; i++) {
        if (line[i] == '#' && (i == 0 || kx_is_space(line[i - 1])))
            return i;
    }
    return n;
}

/* Names seen so far in one parse, keys and each section's properties:
 * open addressing over entries, sized once from the line count (a line
 * adds at most one entry), at most half full, so a parse is linear in the
 * text whatever the order. A slot holds 0 (empty), a key's index + 1, or
 * KX_PROP_ENTRY | i for property i. Slots stay one word: a fresh process
 * pays a page fault for every page of the table its probes touch. */
#define KX_PROP_ENTRY 0x80000000u

/* a key while parsing: strings are in the parse's copy of the text */
typedef struct {
    char *name;
    char *value;
    uint32_t nprops;
} kx_draft_key;

/* a property while parsing: offsets into the parse's copy of the text */
typedef struct {
    uint32_t key; /* its section's index in kx_draft.keys */
    uint32_t name;
    uint32_t value;
} kx_draft_prop;

typedef struct {
    char *text; /* the copy every name and value is cut from, in the block */
    kx_draft_key *keys;
    size_t len, cap;
    kx_draft_prop *props; /* one per distinct (section, property name) */
    uint32_t nprops;
    unsigned *slots;
    size_t mask;
} kx_draft;

/* FNV-1a from a basis offset by seed: the low bits of the hash are a
 * bijection of the seed's low bits, so a property name repeated over many
 * sections spreads over the table instead of piling on one slot */
static size_t kx_hash(const char *s, size_t n, unsigned seed) {
    unsigned h = 2166136261u ^ seed;
    for (size_t i = 0; i < n; i++)
        h = (h ^ (unsigned char)s[i]) * 16777619u;
    return h;
}

/* index of the key named name (n bytes, already NUL-cut in the text),
 * appending an empty one when the name is new; -1 when out of memory */
static long kx_parse_key(kx_draft *d, char *name, size_t n) {
    size_t h = kx_hash(name, n, 0) & d->mask;
    for (unsigned slot; (slot = d->slots[h]) != 0; h = (h + 1) & d->mask)
        if (!(slot & KX_PROP_ENTRY) && strcmp(d->keys[slot - 1].name, name) == 0)
            return (long)slot - 1;
    if (d->len == d->cap) {
        size_t cap = d->cap ? d->cap * 2 : 64;
        kx_draft_key *keys = (kx_draft_key *)realloc(d->keys, cap * sizeof *keys);
        if (!keys)
            return -1;
        d->keys = keys;
        d->cap = cap;
    }
    /* value "": the name's own terminator */
    d->keys[d->len] = (kx_draft_key){name, name + n, 0};
    d->slots[h] = (unsigned)d->len + 1;
    return (long)d->len++;
}

/* set property prop (n bytes) of the key at index key to value, both
 * NUL-cut in the text; a later line wins */
static void kx_parse_prop(kx_draft *d, long key, char *prop, size_t n, char *value) {
    size_t h = kx_hash(prop, n, (unsigned)key + 1) & d->mask;
    for (unsigned slot; (slot = d->slots[h]) != 0; h = (h + 1) & d->mask) {
        if (!(slot & KX_PROP_ENTRY))
            continue;
        kx_draft_prop *entry = &d->props[slot & ~KX_PROP_ENTRY];
        if (entry->key == (uint32_t)key && strcmp(d->text + entry->name, prop) == 0) {
            entry->value = (uint32_t)(value - d->text);
            return;
        }
    }
    d->props[d->nprops] = (kx_draft_prop){(uint32_t)key, (uint32_t)(prop - d->text),
                                          (uint32_t)(value - d->text)};
    d->slots[h] = KX_PROP_ENTRY | d->nprops++;
    d->keys[key].nprops++;
}

static int kx_draft_order(const void *a, const void *b) {
    return strcmp((*(const kx_draft_key *const *)a)->name, (*(const kx_draft_key *const *)b)->name);
}

/* lay the parsed draft out after its text, in the block the text was cut in
 * (see kx_image_header); the block has room for both tables */
static int kx_draft_build(kx_draft *d, unsigned char *block, size_t len, kx_keyset *out) {
    uint64_t keys_at = kx_keys_at(len + 1);
    uint64_t props_at = keys_at + (uint64_t)d->len * sizeof(kx_key);
    uint64_t size = props_at + (uint64_t)d->nprops * sizeof(kx_prop);
    /* the keys in the order kx_keyset_get and kx_keyset_below search; sorting
     * pointers moves 8 bytes per step, not a whole draft key */
    kx_draft_key **order = (kx_draft_key **)malloc((d->len ? d->len : 1) * sizeof *order);
    /* each draft key's next free place in the property table */
    uint32_t *place = (uint32_t *)malloc((d->len ? d->len : 1) * sizeof *place);
    if (!order || !place) {
        free(order);
        free(place);
        return KX_E_NOMEM;
    }
    for (size_t i = 0; i < d->len; i++)
        order[i] = &d->keys[i];
    qsort(order, d->len, sizeof *order, kx_draft_order);

    kx_image_header h = {KX_IMAGE_MAGIC, KX_IMAGE_ORDER, KX_IMAGE_VERSION, (uint32_t)d->len,
                         d->nprops, (uint32_t)(len + 1), size, len, 0, 0};
    memcpy(block, &h, sizeof h);
    memset(d->text + len + 1, 0, keys_at - sizeof h - (len + 1));
    kx_key *keys = (kx_key *)(block + keys_at);
    kx_prop *props = (kx_prop *)(block + props_at);
    uint32_t next = 0;
    for (size_t i = 0; i < d->len; i++) {
        const kx_draft_key *dk = order[i];
        place[dk - d->keys] = next;
        keys[i] = (kx_key){kx_off(&keys[i], dk->name), kx_off(&keys[i], dk->value),
                           kx_off(&keys[i], &props[next]), dk->nprops};
        next += dk->nprops;
    }
    for (uint32_t i = 0; i < d->nprops; i++) {
        const kx_draft_prop *dp = &d->props[i];
        kx_prop *prop = &props[place[dp->key]++];
        *prop = (kx_prop){kx_off(prop, d->text + dp->name), kx_off(prop, d->text + dp->value)};
    }
    free(order);
    free(place);
    out->block = block;
    out->size = size;
    out->keys = keys;
    out->len = d->len;
    out->owned = 1;
    return KX_OK;
}

int kx_parse_spec(const char *data, size_t len, kx_keyset *out, kx_error *err) {
    kx_keyset_init(out);
    long bad = kx_utf8_invalid_at((const unsigned char *)data, len);
    if (bad >= 0) {
        int line = 1;
        for (long i = 0; i < bad; i++)
            if (data[i] == '\n')
                line++;
        kx_set_error(err, line, KX_PK_ENCODING, "NUL byte or invalid UTF-8");
        return KX_E_PARSE;
    }

    /* a line names at most one new key or property */
    size_t lines = 1;
    for (const char *nl = data; (nl = memchr(nl, '\n', len - (size_t)(nl - data))) != NULL; nl++)
        lines++;
    /* a line adds at most one key or property, so lines key entries hold
     * both tables; offsets in the block are 32-bit signed */
    uint64_t room = kx_keys_at(len + 1) + (uint64_t)lines * sizeof(kx_key);
    if (lines >= UINT_MAX / 4 || room > INT32_MAX)
        return KX_E_NOMEM; /* index slots hold indexes below KX_PROP_ENTRY */
    size_t slots = 16;
    while (slots < 2 * lines)
        slots *= 2;
    kx_draft d = {0};
    d.slots = (unsigned *)calloc(slots, sizeof(unsigned));
    d.mask = slots - 1;
    d.props = (kx_draft_prop *)malloc(lines * sizeof(kx_draft_prop));
    /* the block, with one copy of the text in it; every name and value is
     * cut from that copy in place */
    unsigned char *block = (unsigned char *)malloc(room);
    int rc = KX_OK;
    if (!d.slots || !d.props || !block) {
        rc = KX_E_NOMEM;
        goto done;
    }
    d.text = (char *)block + sizeof(kx_image_header);
    memcpy(d.text, data, len);
    d.text[len] = '\0';

    long section = -1; /* index of the open section's key */
    int line_no = 0;
    char *p = d.text;
    char *text_end = d.text + len;

    while (p <= text_end) {
        char *nl = memchr(p, '\n', (size_t)(text_end - p));
        char *line_end = nl ? nl : text_end;
        line_no++;

        const char *ls = p;
        const char *le = line_end;
        p = nl ? nl + 1 : text_end + 1;

        if (le > ls && le[-1] == '\r')
            le--;
        if (memchr(ls, '\r', (size_t)(le - ls))) {
            kx_set_error(err, line_no, KX_PK_BAD_ASSIGNMENT, "stray carriage return");
            rc = KX_E_PARSE;
            break;
        }
        le = ls + kx_comment_start(ls, (size_t)(le - ls));
        kx_trim(&ls, &le);
        if (ls == le)
            continue;

        if (*ls == '[') {
            if (le - ls < 2 || le[-1] != ']') {
                kx_set_error(err, line_no, KX_PK_BAD_SECTION, "unclosed section header");
                rc = KX_E_PARSE;
                break;
            }
            const char *ib = ls + 1;
            const char *ie = le - 1;
            kx_trim(&ib, &ie);
            size_t ilen = (size_t)(ie - ib);
            if (!kx_name_valid_mem(ib, ilen)) {
                kx_set_error(err, line_no, KX_PK_INVALID_NAME, "invalid section name");
                rc = KX_E_PARSE;
                break;
            }
            *(char *)ie = '\0';
            section = kx_parse_key(&d, (char *)ib, ilen);
            if (section < 0) {
                rc = KX_E_NOMEM;
                break;
            }
            continue;
        }

        const char *eq = memchr(ls, '=', (size_t)(le - ls));
        if (!eq) {
            kx_set_error(err, line_no, KX_PK_BAD_ASSIGNMENT, "expected NAME=VALUE or [NAME]");
            rc = KX_E_PARSE;
            break;
        }
        const char *nb = ls;
        const char *ne = eq;
        kx_trim(&nb, &ne);
        const char *vb = eq + 1;
        const char *ve = le;
        kx_trim(&vb, &ve);
        size_t nlen = (size_t)(ne - nb);
        int is_value_prop = (nlen == 5 && memcmp(nb, "value", 5) == 0);
        /* ne <= eq < vb <= ve: the cuts touch neither string */
        *(char *)ne = '\0';
        *(char *)ve = '\0';

        if (section >= 0) {
            if (is_value_prop) {
                d.keys[section].value = (char *)vb;
            } else if (nlen == 0) {
                kx_set_error(err, line_no, KX_PK_INVALID_NAME, "empty property name");
                rc = KX_E_PARSE;
                break;
            } else {
                kx_parse_prop(&d, section, (char *)nb, nlen, (char *)vb);
            }
            continue;
        }

        if (is_value_prop) {
            kx_set_error(err, line_no, KX_PK_PROPERTY_OUTSIDE_SECTION,
                         "reserved property 'value' outside any section");
            rc = KX_E_PARSE;
            break;
        }
        if (!kx_name_valid_mem(nb, nlen)) {
            kx_set_error(err, line_no, KX_PK_INVALID_NAME, "invalid key name");
            rc = KX_E_PARSE;
            break;
        }
        long idx = kx_parse_key(&d, (char *)nb, nlen);
        if (idx < 0) {
            rc = KX_E_NOMEM;
            break;
        }
        d.keys[idx].value = (char *)vb;
    }
    if (rc == KX_OK)
        rc = kx_draft_build(&d, block, len, out);

done:
    free(d.slots);
    free(d.props);
    free(d.keys);
    if (rc != KX_OK)
        free(block);
    return rc;
}

/* ------------------------------------------------------------------ */
/* layer state                                                         */
/* ------------------------------------------------------------------ */

void kx_state_init(kx_state *st) {
    st->names = NULL;
    st->values = NULL;
    st->len = 0;
    st->cap = 0;
    st->generation = 0;
}

void kx_state_free(kx_state *st) {
    if (!st)
        return;
    for (size_t i = 0; i < st->len; i++) {
        free(st->names[i]);
        free(st->values[i]);
    }
    free(st->names);
    free(st->values);
    kx_state_init(st);
}

static long kx_state_find(const kx_state *st, const char *name, size_t nlen) {
    size_t lo = 0, hi = st->len;
    while (lo < hi) {
        size_t mid = lo + (hi - lo) / 2;
        const char *have = st->names[mid];
        size_t hlen = strlen(have);
        size_t min = hlen < nlen ? hlen : nlen;
        int cmp = memcmp(have, name, min);
        if (cmp == 0)
            cmp = (hlen > nlen) - (hlen < nlen);
        if (cmp == 0)
            return (long)mid;
        if (cmp < 0)
            lo = mid + 1;
        else
            hi = mid;
    }
    return -((long)lo + 1);
}

static int kx_state_set_mem(kx_state *st, const char *name, size_t nlen,
                            const char *value, size_t vlen) {
    long idx = kx_state_find(st, name, nlen);
    char *vcopy = kx_strndup(value, vlen);
    if (!vcopy)
        return KX_E_NOMEM;
    if (idx >= 0) {
        free(st->values[idx]);
        st->values[idx] = vcopy;
        return KX_OK;
    }
    char *ncopy = kx_strndup(name, nlen);
    if (!ncopy) {
        free(vcopy);
        return KX_E_NOMEM;
    }
    size_t pos = (size_t)(-idx - 1);
    if (st->len + 1 > st->cap) {
        size_t cap = st->cap ? st->cap * 2 : 8;
        char **names = (char **)realloc(st->names, cap * sizeof(char *));
        if (!names) {
            free(vcopy);
            free(ncopy);
            return KX_E_NOMEM;
        }
        st->names = names;
        char **values = (char **)realloc(st->values, cap * sizeof(char *));
        if (!values) {
            free(vcopy);
            free(ncopy);
            return KX_E_NOMEM;
        }
        st->values = values;
        st->cap = cap;
    }
    memmove(&st->names[pos + 1], &st->names[pos], (st->len - pos) * sizeof(char *));
    memmove(&st->values[pos + 1], &st->values[pos], (st->len - pos) * sizeof(char *));
    st->names[pos] = ncopy;
    st->values[pos] = vcopy;
    st->len++;
    return KX_OK;
}

int kx_state_set(kx_state *st, const char *name, const char *value) {
    return kx_state_set_mem(st, name, strlen(name), value, strlen(value));
}

const char *kx_state_get(const kx_state *st, const char *name) {
    long idx = kx_state_find(st, name, strlen(name));
    return idx >= 0 ? st->values[idx] : NULL;
}

static int kx_layer_name_ok(const char *s, size_t n) {
    if (n == 0 || kx_is_space(s[0]) || kx_is_space(s[n - 1]))
        return 0;
    for (size_t i = 0; i < n; i++) {
        char c = s[i];
        if (c == '/' || c == '=' || c == '\n' || c == '\r' || c == '%')
            return 0;
    }
    return 1;
}

static int kx_layer_value_ok(const char *s, size_t n) {
    if (n == 0 || kx_is_space(s[0]) || kx_is_space(s[n - 1]))
        return 0;
    if (n == 1 && s[0] == '*')
        return 0;
    for (size_t i = 0; i < n; i++) {
        char c = s[i];
        if (c == '/' || c == '=' || c == '\n' || c == '\r')
            return 0;
    }
    return 1;
}

int kx_parse_state(const char *data, size_t len, kx_state *out, kx_error *err) {
    kx_state_init(out);
    if (kx_utf8_invalid_at((const unsigned char *)data, len) >= 0) {
        kx_set_error(err, 0, KX_PK_ENCODING, "NUL byte or invalid UTF-8");
        return KX_E_STATE;
    }
    int have_generation = 0;
    int rc = KX_OK;
    int line_no = 0;
    const char *p = data;
    const char *data_end = data + len;

    while (p <= data_end) {
        const char *nl = memchr(p, '\n', (size_t)(data_end - p));
        const char *line_end = nl ? nl : data_end;
        line_no++;
        const char *ls = p;
        const char *le = line_end;
        p = nl ? nl + 1 : data_end + 1;

        while (le > ls && le[-1] == '\r')
            le--;
        if (ls == le)
            continue;

        const char *eq = memchr(ls, '=', (size_t)(le - ls));
        if (!eq) {
            kx_set_error(err, line_no, KX_PK_BAD_ASSIGNMENT, "expected NAME=VALUE");
            rc = KX_E_STATE;
            break;
        }
        size_t nlen = (size_t)(eq - ls);
        const char *vb = eq + 1;
        size_t vlen = (size_t)(le - vb);

        if (nlen == 10 && memcmp(ls, "generation", 10) == 0) {
            if (have_generation) {
                kx_set_error(err, line_no, KX_PK_BAD_ASSIGNMENT, "second generation line");
                rc = KX_E_STATE;
                break;
            }
            if (vlen == 0) {
                kx_set_error(err, line_no, KX_PK_BAD_ASSIGNMENT, "empty generation");
                rc = KX_E_STATE;
                break;
            }
            long long gen = 0;
            int ok = 1;
            for (size_t i = 0; i < vlen; i++) {
                int d = vb[i] - '0';
                if (d < 0 || d > 9 || gen > (LLONG_MAX - d) / 10) {
                    ok = 0; /* ASCII digits only, at most LLONG_MAX */
                    break;
                }
                gen = gen * 10 + d;
            }
            if (!ok) {
                kx_set_error(err, line_no, KX_PK_BAD_ASSIGNMENT, "bad generation");
                rc = KX_E_STATE;
                break;
            }
            out->generation = gen;
            have_generation = 1;
            continue;
        }

        if (nlen < 6 || memcmp(ls, "layer/", 6) != 0) {
            kx_set_error(err, line_no, KX_PK_BAD_ASSIGNMENT, "unexpected entry");
            rc = KX_E_STATE;
            break;
        }
        const char *lname = ls + 6;
        size_t lname_len = nlen - 6;
        if (!kx_layer_name_ok(lname, lname_len) || !kx_layer_value_ok(vb, vlen)) {
            kx_set_error(err, line_no, KX_PK_INVALID_NAME, "bad layer entry");
            rc = KX_E_STATE;
            break;
        }
        if (kx_state_find(out, lname, lname_len) >= 0) {
            kx_set_error(err, line_no, KX_PK_BAD_ASSIGNMENT, "layer listed twice");
            rc = KX_E_STATE;
            break;
        }
        rc = kx_state_set_mem(out, lname, lname_len, vb, vlen);
        if (rc != KX_OK)
            break;
    }

    if (rc == KX_OK && !have_generation) {
        kx_set_error(err, 0, KX_PK_BAD_ASSIGNMENT, "missing generation line");
        rc = KX_E_STATE;
    }
    if (rc != KX_OK) {
        kx_state_free(out);
        return rc;
    }
    return KX_OK;
}

/* ------------------------------------------------------------------ */
/* templates                                                           */
/* ------------------------------------------------------------------ */

/* A template is read in place, one piece at a time: a run of literal text,
 * the '%' of a "%%", or a %layer% reference, whose layer name is trimmed of
 * spaces and tabs. */
enum { KX_PIECE_END, KX_PIECE_TEXT, KX_PIECE_REF };

/* the kind of the piece at *p and its bytes [*s, *s + *n), moving *p past
 * it; KX_E_TEMPLATE for an unterminated placeholder or an empty layer name */
static int kx_piece(const char **p, const char **s, size_t *n, kx_error *err) {
    const char *at = *p;
    if (*at == '\0')
        return KX_PIECE_END;
    if (*at != '%') {
        *s = at;
        *n = strcspn(at, "%");
        *p = at + *n;
        return KX_PIECE_TEXT;
    }
    if (at[1] == '%') {
        *s = at;
        *n = 1;
        *p = at + 2;
        return KX_PIECE_TEXT;
    }
    const char *close = strchr(at + 1, '%');
    if (!close) {
        kx_set_error(err, 0, KX_PK_NONE, "unterminated placeholder");
        return KX_E_TEMPLATE;
    }
    const char *nb = at + 1, *ne = close;
    kx_trim(&nb, &ne);
    if (nb == ne) {
        kx_set_error(err, 0, KX_PK_NONE, "empty layer name");
        return KX_E_TEMPLATE;
    }
    *s = nb;
    *n = (size_t)(ne - nb);
    *p = close + 1;
    return KX_PIECE_REF;
}

/* a template's references under a state */
typedef struct {
    const char *value[KX_MAX_TEMPLATE_REFS]; /* leftmost first; NULL: layer unset */
    size_t n;
    unsigned active; /* a bit per set layer, leftmost reference highest */
} kx_refs;

/* check the whole template, and find which of its layers st sets */
static int kx_refs_of(const char *text, const kx_state *st, kx_refs *refs, kx_error *err) {
    const char *p = text, *s;
    size_t n;
    int kind, first = KX_PIECE_END;
    refs->n = 0;
    refs->active = 0;
    while ((kind = kx_piece(&p, &s, &n, err)) > KX_PIECE_END) {
        if (first == KX_PIECE_END)
            first = kind;
        if (kind == KX_PIECE_REF && refs->n++ < KX_MAX_TEMPLATE_REFS) {
            long idx = kx_state_find(st, s, n);
            refs->value[refs->n - 1] = idx >= 0 ? st->values[idx] : NULL;
            refs->active = refs->active << 1 | (idx >= 0);
        }
    }
    if (kind != KX_PIECE_END)
        return kind;
    if (first != KX_PIECE_TEXT) {
        kx_set_error(err, 0, KX_PK_NONE, "template must start with a literal");
        return KX_E_TEMPLATE;
    }
    if (refs->n > KX_MAX_TEMPLATE_REFS) {
        kx_set_error(err, 0, KX_PK_NONE, "too many layer references");
        return KX_E_TEMPLATE;
    }
    return KX_OK;
}

/* the candidate of mask into buf, for a template kx_refs_of accepted: a
 * reference whose bit is set renders its layer's value, any other the
 * wildcard */
static int kx_render(const char *text, const kx_refs *refs, unsigned mask, kx_buf *buf,
                     kx_error *err) {
    const char *p = text, *s;
    size_t n, ref = 0;
    int kind, rc = KX_OK;
    buf->len = 0;
    while (rc == KX_OK && (kind = kx_piece(&p, &s, &n, NULL)) > KX_PIECE_END) {
        if (kind == KX_PIECE_REF) {
            s = mask >> (refs->n - 1 - ref) & 1u ? refs->value[ref] : KX_WILDCARD;
            n = strlen(s);
            ref++;
        }
        rc = kx_buf_push(buf, s, n);
    }
    if (rc == KX_OK && !kx_name_valid_mem(buf->data, buf->len)) {
        kx_set_error(err, 0, KX_PK_NONE, "rendered candidate is not a valid name");
        rc = KX_E_TEMPLATE;
    }
    return rc;
}

/* each candidate of a template under st, most specific first: rendered into
 * buf and handed to visit until visit returns nonzero. Returns that, or the
 * template's error. */
static int kx_each_candidate(const char *text, const kx_state *st, kx_buf *buf,
                             int (*visit)(void *arg, const kx_buf *name), void *arg,
                             kx_error *err) {
    kx_refs refs;
    int rc = kx_refs_of(text, st, &refs, err);
    for (unsigned mask = refs.active; rc == KX_OK; mask = (mask - 1) & refs.active) {
        rc = kx_render(text, &refs, mask, buf, err);
        if (rc == KX_OK)
            rc = visit(arg, buf);
        if (mask == 0)
            break;
    }
    return rc;
}

/* appends a candidate to the buffer arg, with its NUL */
static int kx_collect(void *arg, const kx_buf *name) {
    return kx_buf_push((kx_buf *)arg, name->data, name->len + 1);
}

int kx_candidates(const char *template_text, const kx_state *st,
                  char ***names_out, size_t *count_out, kx_error *err) {
    kx_buf buf = {0}, all = {0};
    int rc = kx_each_candidate(template_text, st, &buf, kx_collect, &all, err);
    kx_buf_free(&buf);
    char **names = NULL;
    size_t count = 0;
    for (size_t i = 0; i < all.len; i++)
        count += all.data[i] == '\0';
    /* one block: the pointers, then the names they point at */
    if (rc == KX_OK && !(names = (char **)malloc(count * sizeof *names + all.len)))
        rc = KX_E_NOMEM;
    if (rc == KX_OK) {
        char *name = (char *)memcpy(names + count, all.data, all.len);
        for (size_t i = 0; i < count; i++, name += strlen(name) + 1)
            names[i] = name;
        *names_out = names;
        *count_out = count;
    }
    kx_buf_free(&all);
    return rc;
}

void kx_names_free(char **names, size_t count) {
    (void)count; /* one block holds the array and every name */
    free(names);
}

/* ------------------------------------------------------------------ */
/* contextual lookup                                                   */
/* ------------------------------------------------------------------ */

void kx_result_free(kx_result *res) {
    if (!res)
        return;
    free(res->chain);
    res->chain = NULL;
    res->chain_len = 0;
    res->value = NULL;
    res->matched = NULL;
}

typedef struct {
    const kx_keyset *ks;
    const kx_key *key; /* the first candidate that names a key */
} kx_probe;

static int kx_probe_candidate(void *arg, const kx_buf *name) {
    kx_probe *probe = (kx_probe *)arg;
    probe->key = kx_keyset_get(probe->ks, name->data);
    return probe->key != NULL;
}

int kx_lookup(const kx_keyset *ks, const char *name, const kx_state *st,
              kx_result *out, kx_error *err) {
    out->value = NULL;
    out->matched = NULL;
    out->chain_len = 0;
    /* room for a full chain and a repeated name as its tail */
    out->chain = (const char **)malloc((KX_MAX_CHAIN + 1) * sizeof *out->chain);
    if (!out->chain)
        return KX_E_NOMEM;

    kx_buf buf = {0};
    kx_probe probe = {ks, NULL};
    const char *current = name;
    int rc;
    for (;;) {
        int revisit = 0;
        for (size_t i = 0; i < out->chain_len && !revisit; i++)
            revisit = strcmp(out->chain[i], current) == 0;
        if (!revisit && out->chain_len >= KX_MAX_CHAIN) {
            kx_set_error(err, 0, KX_PK_NONE, "resolution chain too long");
            rc = KX_E_DEPTH;
            break;
        }
        out->chain[out->chain_len++] = current; /* a repeated name too, for diagnostics */
        if (revisit) {
            kx_set_error(err, 0, KX_PK_NONE, "resolution cycle");
            rc = KX_E_CYCLE;
            break;
        }

        const kx_key *key = kx_keyset_get(ks, current);
        if (!key) {
            rc = KX_ABSENT;
            break;
        }
        const char *template_text = kx_key_meta(key, KX_CONTEXT_PROPERTY);
        probe.key = NULL;
        if (template_text) {
            rc = kx_each_candidate(template_text, st, &buf, kx_probe_candidate, &probe, err);
            if (rc < 0)
                break;
        }
        if (!probe.key) {
            /* the key's own value, unless it indirects and that is empty */
            rc = template_text && kx_key_value(key)[0] == '\0' ? KX_ABSENT : KX_OK;
            if (rc == KX_OK) {
                out->value = kx_key_value(key);
                out->matched = kx_key_name(key);
            }
            break;
        }
        current = kx_key_name(probe.key);
    }

    kx_buf_free(&buf);
    if (rc != KX_OK && rc != KX_E_CYCLE && rc != KX_E_DEPTH && rc != KX_ABSENT) {
        /* hard errors do not hand a chain back */
        kx_result_free(out);
    }
    return rc;
}
