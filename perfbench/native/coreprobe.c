/* Times the core.h entry points the preload calls, linked straight from
 * core.c, on a workload's own spec and state.
 *
 * usage: coreprobe SPEC STATE PROBEFILE SLOT_MS SAMPLES
 *   PROBEFILE lines: "reg CLASS NAME"  a registered getenv name and its class
 *                    "unreg NAME"      an unregistered getenv name
 *                    "hit NAME"        the registered calls in plan order
 *   SAMPLES   file that receives every batch as native uint32 triples
 *             (op code, end in us, duration in ns), in mixdriver's format
 * Each op runs in batches for SLOT_MS; op k's times start at (k - 1) *
 * SLOT_MS, so the same op lands in the same windows on every run. After
 * every REF_EVERY batches a reference batch (reference.h, class 0) stats the
 * state file. Prints one "op CODE NAME CALLS" line per op: CALLS calls make
 * one batch. The harness reduces the samples as it does the drivers'.
 */

#define _GNU_SOURCE

#include "core.h"
#include "reference.h"

#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/stat.h>
#include <time.h>

#define MAX_NAMES 4096
#define BATCH_NS 20000 /* a calibrated batch lasts about this long */
#define HIT_BATCH 16   /* calls per batch of the drivers' registered getenv */

typedef struct {
    char *items[MAX_NAMES];
    int n;
} list_t;

static kx_keyset g_ks;
static kx_state g_st;
static char *g_spec_text, *g_state_text;
static size_t g_spec_len, g_state_len;
static const char *g_state_path;
static list_t *g_cur; /* the list the current op walks */
static long long g_slot_ns;
static int g_ops;
static uint32_t *g_samples; /* triples */
static size_t g_nsamples, g_cap;

static long long now_ns(void) {
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (long long)ts.tv_sec * 1000000000LL + ts.tv_nsec;
}

static void die(const char *what) {
    fprintf(stderr, "coreprobe: %s\n", what);
    exit(2);
}

static char *read_all(const char *path, size_t *len) {
    FILE *f = fopen(path, "rb");
    if (!f)
        die("cannot read input file");
    size_t cap = 1 << 16, n = 0;
    char *buf = malloc(cap);
    size_t got;
    while (buf && (got = fread(buf + n, 1, cap - n, f)) > 0) {
        n += got;
        if (n == cap)
            buf = realloc(buf, cap *= 2);
    }
    fclose(f);
    if (!buf)
        die("out of memory");
    *len = n;
    return buf;
}

static void add(list_t *l, const char *s) {
    if (l->n == MAX_NAMES)
        die("too many names");
    l->items[l->n++] = strdup(s);
}

static void push_sample(int code, long long t_ns, long long ns) {
    if (g_nsamples == g_cap) {
        g_cap = g_cap ? g_cap * 2 : 1 << 16;
        g_samples = realloc(g_samples, sizeof(uint32_t) * 3 * g_cap);
        if (!g_samples)
            die("out of memory");
    }
    uint32_t *rec = &g_samples[3 * g_nsamples++];
    rec[0] = (uint32_t)code;
    rec[1] = (uint32_t)(t_ns / 1000);
    rec[2] = ns > UINT32_MAX ? UINT32_MAX : (uint32_t)ns;
}

/* times op in batches of `calls` calls, cycling through the current list of
 * n items, for one slot; calls = 0 picks whole passes over the list adding up
 * to about BATCH_NS, so the clock read does not dominate */
static void measure(const char *name, void (*op)(int), int n, int calls) {
    if (n == 0)
        return;
    if (calls == 0) {
        long long t0 = now_ns();
        for (int i = 0; i < n; i++)
            op(i);
        long long one = now_ns() - t0;
        calls = n * (one > 0 && one < BATCH_NS ? (int)(BATCH_NS / one) + 1 : 1);
    }
    int code = ++g_ops;
    printf("op %d %s %d\n", code, name, calls);
    long long base = (long long)(code - 1) * g_slot_ns;
    long long start = now_ns(), stop = start + g_slot_ns;
    int cursor = 0;
    for (long long batches = 1;; batches++) {
        long long b0 = now_ns();
        for (int c = 0; c < calls; c++) {
            op(cursor);
            if (++cursor == n)
                cursor = 0;
        }
        long long b1 = now_ns();
        if (b1 >= stop && batches > 1)
            break;
        push_sample(code, base + (b1 < stop ? b1 - start : g_slot_ns - 1000), b1 - b0);
        if (batches % REF_EVERY == 0) {
            long long r0 = now_ns();
            if (reference_batch(g_state_path) != 0)
                die("state file missing");
            long long r1 = now_ns();
            if (r1 < stop)
                push_sample(REF_CLASS, base + (r1 - start), r1 - r0);
        }
    }
}

static void op_keyset_get(int i) {
    volatile const kx_key *k = kx_keyset_get(&g_ks, g_cur->items[i]);
    (void)k;
}

static void op_lookup(int i) {
    kx_result res;
    kx_error err;
    int rc = kx_lookup(&g_ks, g_cur->items[i], &g_st, &res, &err);
    if (rc != KX_OK && rc != KX_ABSENT)
        die("lookup failed on a benchmark key");
    kx_result_free(&res);
}

static void op_candidates(int i) {
    char **names;
    size_t count;
    kx_error err;
    if (kx_candidates(g_cur->items[i], &g_st, &names, &count, &err) != KX_OK)
        die("candidates failed on a benchmark template");
    kx_names_free(names, count);
}

static void op_parse_state(int i) {
    (void)i;
    kx_state st;
    kx_error err;
    if (kx_parse_state(g_state_text, g_state_len, &st, &err) != KX_OK)
        die("state does not parse");
    kx_state_free(&st);
}

static void op_parse_spec(int i) {
    (void)i;
    kx_keyset ks;
    kx_error err;
    if (kx_parse_spec(g_spec_text, g_spec_len, &ks, &err) != KX_OK)
        die("spec does not parse");
    kx_keyset_free(&ks);
}

static void op_stat(int i) {
    (void)i;
    struct stat st;
    if (stat(g_state_path, &st) != 0)
        die("state file missing");
}

/* the preload's work for a registered getenv, minus its lock, key build
 * and answer store: probe the key set, stat the state file, look up */
static void op_hit_parts(int i) {
    op_keyset_get(i);
    op_stat(i);
    op_lookup(i);
}

int main(int argc, char **argv) {
    if (argc != 6)
        die("usage: coreprobe SPEC STATE PROBEFILE SLOT_MS SAMPLES");
    g_slot_ns = (long long)(atof(argv[4]) * 1e6);
    if (g_slot_ns <= 0)
        die("SLOT_MS must be positive");
    g_state_path = argv[2];
    g_spec_text = read_all(argv[1], &g_spec_len);
    g_state_text = read_all(argv[2], &g_state_len);
    kx_error err;
    if (kx_parse_spec(g_spec_text, g_spec_len, &g_ks, &err) != KX_OK)
        die("spec does not parse");
    if (kx_parse_state(g_state_text, g_state_len, &g_st, &err) != KX_OK)
        die("state does not parse");

    static list_t reg, unreg, hit, classes[16], templates[16];
    char class_names[16][32];
    int nclasses = 0;
    size_t plen;
    char *probe = read_all(argv[3], &plen);
    probe = realloc(probe, plen + 1);
    probe[plen] = '\0';
    for (char *line = strtok(probe, "\n"); line; line = strtok(NULL, "\n")) {
        char key[1024], cls[32], name[1000];
        if (sscanf(line, "reg %31s %999s", cls, name) == 2) {
            snprintf(key, sizeof key, "getenv/%s", name);
            add(&reg, key);
            int c = 0;
            while (c < nclasses && strcmp(class_names[c], cls) != 0)
                c++;
            if (c == nclasses) {
                if (nclasses == 16)
                    die("too many classes");
                snprintf(class_names[nclasses++], sizeof class_names[0], "%s", cls);
            }
            add(&classes[c], key);
            const kx_key *k = kx_keyset_get(&g_ks, key);
            const char *tpl = k ? kx_key_meta(k, KX_CONTEXT_PROPERTY) : NULL;
            if (tpl)
                add(&templates[c], tpl);
        } else if (sscanf(line, "unreg %999s", name) == 1) {
            snprintf(key, sizeof key, "getenv/%s", name);
            add(&unreg, key);
        } else if (sscanf(line, "hit %999s", name) == 1) {
            snprintf(key, sizeof key, "getenv/%s", name);
            add(&hit, key);
        }
    }

    char metric[96];
    g_cur = &reg;
    measure("core.keyset_get_reg_ns", op_keyset_get, reg.n, 0);
    g_cur = &unreg;
    measure("core.keyset_get_unreg_ns", op_keyset_get, unreg.n, 0);
    for (int c = 0; c < nclasses; c++) {
        snprintf(metric, sizeof metric, "core.lookup_%s_ns", class_names[c]);
        g_cur = &classes[c];
        measure(metric, op_lookup, classes[c].n, 0);
        snprintf(metric, sizeof metric, "core.candidates_%s_ns", class_names[c]);
        g_cur = &templates[c];
        measure(metric, op_candidates, templates[c].n, 0);
    }
    g_cur = &hit;
    measure("core.lookup_mix_ns", op_lookup, hit.n, 0);
    /* the same calls in the drivers' batch shape, for interpose.hit_self_ns */
    measure("core.hit_parts_ns", op_hit_parts, hit.n, HIT_BATCH);
    measure("core.parse_state_ns", op_parse_state, 1, 0);
    measure("core.parse_spec_us", op_parse_spec, 1, 0);
    measure("sys.stat_state_ns", op_stat, 1, 0);

    FILE *f = fopen(argv[5], "wb");
    if (!f || fwrite(g_samples, sizeof(uint32_t) * 3, g_nsamples, f) != g_nsamples ||
        fclose(f) != 0)
        die("cannot write samples");
    return 0;
}
