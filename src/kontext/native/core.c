/* Core engine: key sets, spec grammar, layer state, templates, lookup.
 * No globals, no IO; every function is safe to call from the preload shim.
 * See core.h for the contract notes.
 */

#include "core.h"

#include <limits.h>
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

static char *kx_strdup(const char *s) {
    return kx_strndup(s, strlen(s));
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
        size_t cap = buf->cap ? buf->cap : 32;
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
/* key sets                                                            */
/* ------------------------------------------------------------------ */

void kx_keyset_init(kx_keyset *ks) {
    ks->items = NULL;
    ks->len = 0;
    ks->cap = 0;
    ks->text = NULL;
}

void kx_keyset_free(kx_keyset *ks) {
    if (!ks)
        return;
    for (size_t i = 0; i < ks->len; i++) {
        free(ks->items[i].props);
        free(ks->items[i].propvals);
    }
    free(ks->items);
    free(ks->text);
    kx_keyset_init(ks);
}

const kx_key *kx_keyset_get(const kx_keyset *ks, const char *name) {
    size_t lo = 0, hi = ks->len;
    while (lo < hi) {
        size_t mid = lo + (hi - lo) / 2;
        int cmp = strcmp(ks->items[mid].name, name);
        if (cmp == 0)
            return &ks->items[mid];
        if (cmp < 0)
            lo = mid + 1;
        else
            hi = mid;
    }
    return NULL;
}

const char *kx_key_meta(const kx_key *key, const char *prop) {
    for (size_t i = 0; i < key->nprops; i++)
        if (strcmp(key->props[i], prop) == 0)
            return key->propvals[i];
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
        const char *name = ks->items[mid].name;
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
        const char *name = ks->items[lo].name;
        if (strncmp(name, prefix, plen) != 0 || name[plen] != '/')
            break;
        lo++;
    }
    *start = s;
    *end = lo;
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
 * text whatever the order. A slot holds 0 (empty), a key's item index + 1,
 * or KX_PROP_ENTRY | i for props[i]. Slots stay one word: a fresh process
 * pays a page fault for every page of the table its probes touch. */
#define KX_PROP_ENTRY 0x80000000u

typedef struct {
    unsigned item; /* the section's item index */
    unsigned prop; /* the property's index in that item */
} kx_prop_entry;

typedef struct {
    unsigned *slots;
    size_t mask;
    kx_prop_entry *props; /* one per distinct (section, property name) */
    unsigned nprops;
} kx_name_index;

/* FNV-1a from a basis offset by seed: the low bits of the hash are a
 * bijection of the seed's low bits, so a property name repeated over many
 * sections spreads over the table instead of piling on one slot */
static size_t kx_hash(const char *s, size_t n, unsigned seed) {
    unsigned h = 2166136261u ^ seed;
    for (size_t i = 0; i < n; i++)
        h = (h ^ (unsigned char)s[i]) * 16777619u;
    return h;
}

/* index of the item named name (n bytes, already NUL-cut in ks->text),
 * appending an empty one when the name is new; -1 when out of memory */
static long kx_parse_key(kx_keyset *ks, kx_name_index *ix, char *name, size_t n) {
    size_t h = kx_hash(name, n, 0) & ix->mask;
    for (unsigned slot; (slot = ix->slots[h]) != 0; h = (h + 1) & ix->mask)
        if (!(slot & KX_PROP_ENTRY) && strcmp(ks->items[slot - 1].name, name) == 0)
            return (long)slot - 1;
    if (ks->len == ks->cap) {
        size_t cap = ks->cap ? ks->cap * 2 : 64;
        kx_key *items = (kx_key *)realloc(ks->items, cap * sizeof(kx_key));
        if (!items)
            return -1;
        ks->items = items;
        ks->cap = cap;
    }
    kx_key *key = &ks->items[ks->len];
    memset(key, 0, sizeof(*key));
    key->name = name;
    key->value = name + n; /* "": the name's own terminator */
    ix->slots[h] = (unsigned)ks->len + 1;
    return (long)ks->len++;
}

/* set property prop (n bytes) of the item at index item to value, both
 * NUL-cut in the key set's text; a later line wins */
static int kx_parse_prop(kx_keyset *ks, kx_name_index *ix, long item, char *prop, size_t n,
                         char *value) {
    kx_key *key = &ks->items[item];
    size_t h = kx_hash(prop, n, (unsigned)item + 1) & ix->mask;
    for (unsigned slot; (slot = ix->slots[h]) != 0; h = (h + 1) & ix->mask) {
        if (!(slot & KX_PROP_ENTRY))
            continue;
        const kx_prop_entry *entry = &ix->props[slot & ~KX_PROP_ENTRY];
        if (entry->item == (unsigned)item && strcmp(key->props[entry->prop], prop) == 0) {
            key->propvals[entry->prop] = value;
            return KX_OK;
        }
    }
    if (key->nprops + 1 > key->propcap) {
        size_t cap = key->propcap ? key->propcap * 2 : 4;
        char **props = (char **)realloc(key->props, cap * sizeof(char *));
        if (!props)
            return KX_E_NOMEM;
        key->props = props;
        char **vals = (char **)realloc(key->propvals, cap * sizeof(char *));
        if (!vals)
            return KX_E_NOMEM;
        key->propvals = vals;
        key->propcap = cap;
    }
    ix->props[ix->nprops] = (kx_prop_entry){(unsigned)item, (unsigned)key->nprops};
    ix->slots[h] = KX_PROP_ENTRY | ix->nprops++;
    key->props[key->nprops] = prop;
    key->propvals[key->nprops] = value;
    key->nprops++;
    return KX_OK;
}

static int kx_key_order(const void *a, const void *b) {
    return strcmp(((const kx_key *)a)->name, ((const kx_key *)b)->name);
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

    /* a line names at most one new key */
    size_t lines = 1;
    for (const char *nl = data; (nl = memchr(nl, '\n', len - (size_t)(nl - data))) != NULL; nl++)
        lines++;
    if (lines >= UINT_MAX / 4)
        return KX_E_NOMEM; /* index slots hold indexes below KX_PROP_ENTRY */
    size_t slots = 16;
    while (slots < 2 * lines)
        slots *= 2;
    kx_name_index index = {(unsigned *)calloc(slots, sizeof(unsigned)), slots - 1,
                           (kx_prop_entry *)malloc(lines * sizeof(kx_prop_entry)), 0};
    /* one copy of the text; every name and value is cut from it in place */
    out->text = (char *)malloc(len + 1);
    if (!index.slots || !index.props || !out->text) {
        free(index.slots);
        free(index.props);
        kx_keyset_free(out);
        return KX_E_NOMEM;
    }
    memcpy(out->text, data, len);
    out->text[len] = '\0';

    long section = -1; /* item index of the open section */
    int rc = KX_OK;
    int line_no = 0;
    char *p = out->text;
    char *text_end = out->text + len;

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
            section = kx_parse_key(out, &index, (char *)ib, ilen);
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
            if (is_value_prop)
                out->items[section].value = (char *)vb;
            else if (nlen == 0) {
                kx_set_error(err, line_no, KX_PK_INVALID_NAME, "empty property name");
                rc = KX_E_PARSE;
            } else
                rc = kx_parse_prop(out, &index, section, (char *)nb, nlen, (char *)vb);
            if (rc != KX_OK)
                break;
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
        long idx = kx_parse_key(out, &index, (char *)nb, nlen);
        if (idx < 0) {
            rc = KX_E_NOMEM;
            break;
        }
        out->items[idx].value = (char *)vb;
    }

    free(index.slots);
    free(index.props);
    if (rc != KX_OK) {
        kx_keyset_free(out);
        return rc;
    }
    /* the order kx_keyset_get and kx_keyset_below search */
    qsort(out->items, out->len, sizeof(kx_key), kx_key_order);
    return KX_OK;
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

typedef struct {
    int is_ref;
    char *text; /* literal text or layer name */
} kx_tpart;

typedef struct {
    kx_tpart *parts;
    size_t nparts;
    size_t nrefs;
} kx_template;

static void kx_template_free(kx_template *t) {
    for (size_t i = 0; i < t->nparts; i++)
        free(t->parts[i].text);
    free(t->parts);
    t->parts = NULL;
    t->nparts = t->nrefs = 0;
}

static int kx_template_push(kx_template *t, int is_ref, const char *s, size_t n) {
    kx_tpart *parts = (kx_tpart *)realloc(t->parts, (t->nparts + 1) * sizeof(kx_tpart));
    if (!parts)
        return KX_E_NOMEM;
    t->parts = parts;
    char *copy = kx_strndup(s, n);
    if (!copy)
        return KX_E_NOMEM;
    t->parts[t->nparts].is_ref = is_ref;
    t->parts[t->nparts].text = copy;
    t->nparts++;
    if (is_ref)
        t->nrefs++;
    return KX_OK;
}

static int kx_template_parse(const char *text, kx_template *out, kx_error *err) {
    memset(out, 0, sizeof(*out));
    kx_buf literal = {0};
    size_t i = 0;
    size_t n = strlen(text);
    int rc = KX_OK;

    while (i < n) {
        char c = text[i];
        if (c != '%') {
            rc = kx_buf_push(&literal, &c, 1);
            if (rc != KX_OK)
                goto done;
            i++;
            continue;
        }
        if (i + 1 < n && text[i + 1] == '%') {
            rc = kx_buf_push(&literal, "%", 1);
            if (rc != KX_OK)
                goto done;
            i += 2;
            continue;
        }
        const char *close = memchr(text + i + 1, '%', n - i - 1);
        if (!close) {
            kx_set_error(err, 0, KX_PK_NONE, "unterminated placeholder");
            rc = KX_E_TEMPLATE;
            goto done;
        }
        const char *nb = text + i + 1;
        const char *ne = close;
        kx_trim(&nb, &ne);
        if (nb == ne) {
            kx_set_error(err, 0, KX_PK_NONE, "empty layer name");
            rc = KX_E_TEMPLATE;
            goto done;
        }
        if (literal.len > 0) {
            rc = kx_template_push(out, 0, literal.data, literal.len);
            if (rc != KX_OK)
                goto done;
            literal.len = 0;
        }
        rc = kx_template_push(out, 1, nb, (size_t)(ne - nb));
        if (rc != KX_OK)
            goto done;
        i = (size_t)(close - text) + 1;
    }
    if (literal.len > 0) {
        rc = kx_template_push(out, 0, literal.data, literal.len);
        if (rc != KX_OK)
            goto done;
    }
    if (out->nparts == 0 || out->parts[0].is_ref) {
        kx_set_error(err, 0, KX_PK_NONE, "template must start with a literal");
        rc = KX_E_TEMPLATE;
        goto done;
    }
    if (out->nrefs > KX_MAX_TEMPLATE_REFS) {
        kx_set_error(err, 0, KX_PK_NONE, "too many layer references");
        rc = KX_E_TEMPLATE;
        goto done;
    }

done:
    kx_buf_free(&literal);
    if (rc != KX_OK)
        kx_template_free(out);
    return rc;
}

/* active-layer bitmask, leftmost reference = most significant bit */
static unsigned kx_active_mask(const kx_template *t, const kx_state *st) {
    unsigned mask = 0;
    size_t ref_idx = 0;
    for (size_t i = 0; i < t->nparts; i++) {
        if (!t->parts[i].is_ref)
            continue;
        if (kx_state_get(st, t->parts[i].text) != NULL)
            mask |= 1u << (t->nrefs - 1 - ref_idx);
        ref_idx++;
    }
    return mask;
}

static int kx_render_candidate(const kx_template *t, const kx_state *st,
                               unsigned mask, char **out) {
    kx_buf buf = {0};
    size_t ref_idx = 0;
    int rc = KX_OK;
    *out = NULL;
    for (size_t i = 0; i < t->nparts; i++) {
        const kx_tpart *part = &t->parts[i];
        if (!part->is_ref) {
            rc = kx_buf_push(&buf, part->text, strlen(part->text));
        } else {
            unsigned bit = 1u << (t->nrefs - 1 - ref_idx);
            if (mask & bit) {
                const char *value = kx_state_get(st, part->text);
                rc = kx_buf_push(&buf, value, strlen(value));
            } else {
                rc = kx_buf_push(&buf, KX_WILDCARD, 1);
            }
            ref_idx++;
        }
        if (rc != KX_OK) {
            kx_buf_free(&buf);
            return rc;
        }
    }
    if (!kx_name_valid_mem(buf.data ? buf.data : "", buf.len)) {
        kx_buf_free(&buf);
        return KX_E_TEMPLATE;
    }
    *out = buf.data ? buf.data : kx_strdup("");
    return *out ? KX_OK : KX_E_NOMEM;
}

int kx_candidates(const char *template_text, const kx_state *st,
                  char ***names_out, size_t *count_out, kx_error *err) {
    kx_template tpl;
    int rc = kx_template_parse(template_text, &tpl, err);
    if (rc != KX_OK)
        return rc;

    unsigned active = kx_active_mask(&tpl, st);
    size_t active_bits = 0;
    for (unsigned m = active; m; m >>= 1)
        active_bits += m & 1u;
    size_t total = (size_t)1 << active_bits;

    char **names = (char **)calloc(total, sizeof(char *));
    if (!names) {
        kx_template_free(&tpl);
        return KX_E_NOMEM;
    }
    size_t count = 0;
    unsigned mask = active;
    for (;;) {
        rc = kx_render_candidate(&tpl, st, mask, &names[count]);
        if (rc != KX_OK) {
            if (rc == KX_E_TEMPLATE)
                kx_set_error(err, 0, KX_PK_NONE, "rendered candidate is not a valid name");
            kx_names_free(names, count);
            kx_template_free(&tpl);
            return rc;
        }
        count++;
        if (mask == 0)
            break;
        mask = (mask - 1) & active;
    }
    kx_template_free(&tpl);
    *names_out = names;
    *count_out = count;
    return KX_OK;
}

void kx_names_free(char **names, size_t count) {
    if (!names)
        return;
    for (size_t i = 0; i < count; i++)
        free(names[i]);
    free(names);
}

/* ------------------------------------------------------------------ */
/* contextual lookup                                                   */
/* ------------------------------------------------------------------ */

void kx_result_free(kx_result *res) {
    if (!res)
        return;
    for (size_t i = 0; i < res->chain_len; i++)
        free(res->chain[i]);
    free(res->chain);
    res->chain = NULL;
    res->chain_len = 0;
    res->value = NULL;
    res->matched = NULL;
}

static int kx_chain_push(kx_result *res, const char *name) {
    char **chain = (char **)realloc(res->chain, (res->chain_len + 1) * sizeof(char *));
    if (!chain)
        return KX_E_NOMEM;
    res->chain = chain;
    char *copy = kx_strdup(name);
    if (!copy)
        return KX_E_NOMEM;
    res->chain[res->chain_len++] = copy;
    return KX_OK;
}

int kx_lookup(const kx_keyset *ks, const char *name, const kx_state *st,
              kx_result *out, kx_error *err) {
    out->value = NULL;
    out->matched = NULL;
    out->chain = NULL;
    out->chain_len = 0;

    char *current = kx_strdup(name);
    if (!current)
        return KX_E_NOMEM;
    int rc = KX_OK;

    for (;;) {
        int revisit = 0;
        for (size_t i = 0; i < out->chain_len; i++) {
            if (strcmp(out->chain[i], current) == 0) {
                revisit = 1;
                break;
            }
        }
        if (revisit) {
            /* keep the repeated name as the chain tail for diagnostics */
            rc = kx_chain_push(out, current);
            if (rc == KX_OK) {
                kx_set_error(err, 0, KX_PK_NONE, "resolution cycle");
                rc = KX_E_CYCLE;
            }
            break;
        }
        if (out->chain_len >= KX_MAX_CHAIN) {
            kx_set_error(err, 0, KX_PK_NONE, "resolution chain too long");
            rc = KX_E_DEPTH;
            break;
        }
        rc = kx_chain_push(out, current);
        if (rc != KX_OK)
            break;

        const kx_key *key = kx_keyset_get(ks, current);
        if (!key) {
            rc = KX_ABSENT;
            break;
        }
        const char *template_text = kx_key_meta(key, KX_CONTEXT_PROPERTY);
        if (!template_text) {
            out->value = key->value;
            out->matched = key->name;
            rc = KX_OK;
            break;
        }

        kx_template tpl;
        rc = kx_template_parse(template_text, &tpl, err);
        if (rc != KX_OK)
            break;

        unsigned active = kx_active_mask(&tpl, st);
        unsigned mask = active;
        char *chosen = NULL;
        for (;;) {
            char *candidate = NULL;
            rc = kx_render_candidate(&tpl, st, mask, &candidate);
            if (rc != KX_OK) {
                if (rc == KX_E_TEMPLATE)
                    kx_set_error(err, 0, KX_PK_NONE,
                                 "rendered candidate is not a valid name");
                break;
            }
            if (kx_keyset_get(ks, candidate) != NULL) {
                chosen = candidate;
                break;
            }
            free(candidate);
            if (mask == 0)
                break;
            mask = (mask - 1) & active;
        }
        kx_template_free(&tpl);
        if (rc != KX_OK)
            break;

        if (!chosen) {
            if (key->value[0] != '\0') {
                out->value = key->value;
                out->matched = key->name;
                rc = KX_OK;
            } else {
                rc = KX_ABSENT;
            }
            break;
        }
        free(current);
        current = chosen;
    }

    free(current);
    if (rc != KX_OK && rc != KX_E_CYCLE && rc != KX_E_DEPTH && rc != KX_ABSENT) {
        /* hard errors do not hand a chain back */
        kx_result_free(out);
    }
    return rc;
}
