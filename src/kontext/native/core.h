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
#include <stdint.h>

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
    KX_E_IMAGE = -8, /* an image refused: stale, damaged or not ours */
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

/* A parsed key set is one block, byte for byte what a spec image file
 * holds: a header, the spec's text cut with NULs, and a key table and a
 * property table of fixed-width offsets. An offset in a key or property
 * counts from that entry, so a block works at any address and a key alone
 * reaches its strings. kx_parse_spec builds a block with one malloc;
 * kx_keyset_from_image adopts one it is handed (a mapped file) after
 * checking every offset. The layout is private to core.c: callers use the
 * accessors below. */
typedef struct kx_key kx_key;

typedef struct {
    const unsigned char *block; /* header, keys, properties, text */
    size_t size;
    const kx_key *keys; /* sorted by strcmp(name), names unique */
    size_t len;
    int owned; /* kx_keyset_free frees block: kx_parse_spec's, not an adopted image */
} kx_keyset;

/* 64-bit hash of a byte string, 8 bytes per step in each of independent
 * lanes; fed in pieces of any size it gives what one kx_hash64 call gives */
#define KX_HASH_LANES 8
#define KX_HASH_ROUND (8 * KX_HASH_LANES)

typedef struct {
    uint64_t lane[KX_HASH_LANES];
    uint64_t len;
    unsigned char pend[KX_HASH_ROUND];
    size_t npend;
} kx_hasher;

typedef struct {
    char **names; /* sorted by strcmp */
    char **values;
    size_t len;
    size_t cap;
    long long generation;
} kx_state;

/* A lookup's outcome. Nothing in it is a copy: the value and the matched
 * name point into the key set, and so does every chain entry but the first,
 * which is the name the caller looked up. The key set and that name must
 * outlive the result; kx_result_free releases only the chain's array. */
typedef struct {
    const char *value;
    const char *matched;
    const char **chain;
    size_t chain_len;
} kx_result;

/* key sets */
KX_API void kx_keyset_init(kx_keyset *ks);
KX_API void kx_keyset_free(kx_keyset *ks);
KX_API size_t kx_keyset_sizeof(void);
KX_API size_t kx_keyset_len(const kx_keyset *ks);
KX_API const kx_key *kx_keyset_at(const kx_keyset *ks, size_t i);
KX_API const kx_key *kx_keyset_get(const kx_keyset *ks, const char *name);
KX_API int kx_keyset_below(const kx_keyset *ks, const char *prefix,
                           size_t *start, size_t *end);
KX_API const char *kx_key_name(const kx_key *key);
KX_API const char *kx_key_value(const kx_key *key);
KX_API size_t kx_key_nprops(const kx_key *key);
KX_API const char *kx_key_prop(const kx_key *key, size_t i, const char **value);
KX_API const char *kx_key_meta(const kx_key *key, const char *prop);

/* spec images: the block of a key set as the image of the spec text it
 * was parsed from (text, len: kx_keyset_image fills in the header's spec
 * hash and checksum, which a parse leaves for the processes that write),
 * and a block adopted without a copy. kx_keyset_from_image checks the
 * header against the spec text the caller read (its length and kx_hash64),
 * the checksum of the rest and every offset; on KX_E_IMAGE *why names the
 * failed rule ("stale" when the image is sound but of other text). data
 * must outlive the key set. */
KX_API const void *kx_keyset_image(kx_keyset *ks, const char *text, size_t len, size_t *size);
KX_API int kx_keyset_from_image(const void *data, size_t size, uint64_t spec_len,
                                uint64_t spec_hash, kx_keyset *out, const char **why);

/* hashing */
KX_API void kx_hash_init(kx_hasher *h);
KX_API void kx_hash_update(kx_hasher *h, const void *data, size_t n);
KX_API uint64_t kx_hash_final(const kx_hasher *h);
KX_API uint64_t kx_hash64(const void *data, size_t n);

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

/* templates and lookup; kx_candidates' array and names are one block */
KX_API int kx_candidates(const char *template_text, const kx_state *st,
                         char ***names_out, size_t *count_out, kx_error *err);
KX_API void kx_names_free(char **names, size_t count);
KX_API int kx_lookup(const kx_keyset *ks, const char *name, const kx_state *st,
                     kx_result *out, kx_error *err);
KX_API void kx_result_free(kx_result *res);

#endif /* KX_CORE_H */
