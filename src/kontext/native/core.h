/* Core engine of the preload shim.
 *
 * Pure computation, no globals, no IO: key sets, the line-oriented spec
 * grammar, layer state parsing, name templates, candidate enumeration,
 * and recursive contextual lookup. Semantics mirror the Python engine
 * one to one; the equivalence tests drive both over the same inputs
 * through a ctypes binding of core.c built alone as _kxcore.so, which
 * defines KX_API to export these symbols. _preload.so keeps them hidden.
 */

#ifndef KX_CORE_H
#define KX_CORE_H

#include <stddef.h>

#ifndef KX_API
#ifdef __GNUC__
#define KX_API __attribute__((visibility("hidden")))
#else
#define KX_API
#endif
#endif

/* status codes */
enum {
    KX_OK = 0,
    KX_ABSENT = 1, /* lookup produced no value; not an error */
    KX_E_NOMEM = -1,
    KX_E_PARSE = -2,
    KX_E_NAME = -3,
    KX_E_TEMPLATE = -4,
    KX_E_CYCLE = -5,
    KX_E_DEPTH = -6,
    KX_E_STATE = -7,
};

/* parse error kinds, mirroring the spec format documentation */
enum {
    KX_PK_NONE = 0,
    KX_PK_BAD_SECTION = 1,
    KX_PK_BAD_ASSIGNMENT = 2,
    KX_PK_PROPERTY_OUTSIDE_SECTION = 3,
    KX_PK_INVALID_NAME = 4,
    KX_PK_ENCODING = 5,
};

#define KX_MAX_CHAIN 16
#define KX_MAX_TEMPLATE_REFS 16
#define KX_WILDCARD "*"
#define KX_CONTEXT_PROPERTY "context"

typedef struct {
    int line; /* 1-based, 0 when not line-specific */
    int kind; /* KX_PK_* for parse errors */
    char message[160];
} kx_error;

/* A parsed spec owns one copy of its text. Every name, value, property
 * name and property value points into that copy, cut with NULs; the key set
 * owns only that buffer, the items array and each key's two props arrays,
 * and kx_keyset_free releases exactly those. */
typedef struct {
    char *name;  /* display form, in the key set's text */
    char *value; /* in the key set's text, never NULL */
    char **props;    /* owned array; the strings are in the text */
    char **propvals; /* owned array; the strings are in the text */
    size_t nprops;
    size_t propcap;
} kx_key;

typedef struct {
    kx_key *items; /* sorted by strcmp(name), names unique */
    size_t len;
    size_t cap;
    char *text; /* owned copy of the spec text every string points into */
} kx_keyset;

typedef struct {
    char **names; /* sorted by strcmp */
    char **values;
    size_t len;
    size_t cap;
    long long generation;
} kx_state;

typedef struct {
    const char *value;   /* borrowed from the keyset */
    const char *matched; /* borrowed from the keyset */
    char **chain;        /* owned names, kx_result_free releases */
    size_t chain_len;
} kx_result;

/* key sets */
KX_API void kx_keyset_init(kx_keyset *ks);
KX_API void kx_keyset_free(kx_keyset *ks);
KX_API const kx_key *kx_keyset_get(const kx_keyset *ks, const char *name);
KX_API int kx_keyset_below(const kx_keyset *ks, const char *prefix,
                           size_t *start, size_t *end);
KX_API const char *kx_key_meta(const kx_key *key, const char *prop);

/* validation */
KX_API int kx_name_valid(const char *name);

/* spec format */
KX_API int kx_parse_spec(const char *data, size_t len, kx_keyset *out, kx_error *err);

/* layer state */
KX_API void kx_state_init(kx_state *st);
KX_API void kx_state_free(kx_state *st);
KX_API int kx_state_set(kx_state *st, const char *name, const char *value);
KX_API const char *kx_state_get(const kx_state *st, const char *name);
KX_API int kx_parse_state(const char *data, size_t len, kx_state *out, kx_error *err);

/* templates and lookup */
KX_API int kx_candidates(const char *template_text, const kx_state *st,
                         char ***names_out, size_t *count_out, kx_error *err);
KX_API void kx_names_free(char **names, size_t count);
KX_API int kx_lookup(const kx_keyset *ks, const char *name, const kx_state *st,
                     kx_result *out, kx_error *err);
KX_API void kx_result_free(kx_result *res);

#endif /* KX_CORE_H */
