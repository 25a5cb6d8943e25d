/* Replays a generated call plan against getenv() and read-only open().
 *
 * usage: mixdriver PLAN MODE SECONDS THREADS FIRST_NAME SAMPLES
 *   MODE     batch  time each batch of calls (two clock reads per batch)
 *            span   time each call on its own (per-call spans)
 *   SAMPLES  file that receives every timing as native uint32 triples
 *            (class, end in us after "ready", duration in ns); class 0 is
 *            the reference batch
 *
 * The plan is a list of slots (a getenv name or a path to open) and a list
 * of batches, each a class and the slots it calls. The driver makes one
 * untimed warm pass over every batch, prints "ready", then cycles through
 * the batches until SECONDS have passed, and ends with one more untimed
 * pass per thread, so the last answers are read after the last change.
 * After every REF_EVERY timed batches it times a reference batch
 * (reference.h) that stats the plan file.
 * Every call's answer is checked:
 * a result that differs from the last one seen for its slot (by pointer for
 * getenv, by content hash for open) is recorded as an event with its time,
 * and every event is printed at the end for the harness to verify.
 * Nothing is written while the clock runs.
 */

#define _GNU_SOURCE

#include <errno.h>
#include <fcntl.h>
#include <pthread.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>
#include <unistd.h>

#include "reference.h"

/* batch classes; the plan and the samples file use these codes */
enum { C_REF = REF_CLASS, C_UNREG, C_HIT, C_OPEN_UNREG, C_OPEN_HIT, NCLASS };

#define MAX_BATCH 256
#define MAX_SAMPLES (1u << 21)

typedef struct {
    int cls;
    int n;
    int *slots;
} batch_t;

typedef struct {
    uint32_t t_us; /* end of the batch (or call), from ready */
    uint32_t ns;   /* its duration */
} sample_t;

typedef struct {
    sample_t *v;
    size_t n, cap;
} samples_t;

typedef struct {
    int slot;
    long long t_ns;
    char *value; /* NULL: getenv returned NULL */
} event_t;

typedef struct {
    int id;
    int span;
    int start_batch;
    long long deadline_ns;
    long long start_ns, end_ns;
    samples_t samples[NCLASS];
    unsigned long long calls[NCLASS];
    const char **last;   /* last getenv pointer per slot */
    uint64_t *last_hash; /* last open content hash per slot */
    unsigned char *seen;
    event_t *ev;
    size_t nev, evcap;
} worker_t;

static char **g_slots; /* a getenv name or a path to open; the batch class says which */
static int g_nslots;
static batch_t *g_batches;
static int g_nbatches;
static const char *g_plan_path;
static const char UNSEEN = 0;
static long long g_ready_ns;

static long long now_ns(void) {
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (long long)ts.tv_sec * 1000000000LL + ts.tv_nsec;
}

static void die(const char *what) {
    fprintf(stderr, "mixdriver: %s\n", what);
    exit(2);
}

static void *xmalloc(size_t n) {
    void *p = calloc(1, n ? n : 1);
    if (!p)
        die("out of memory");
    return p;
}

static void load_plan(const char *path) {
    FILE *f = fopen(path, "r");
    if (!f)
        die("cannot open plan");
    char *line = NULL;
    size_t cap = 0;
    int slot_cap = 64, batch_cap = 64;
    g_slots = xmalloc(sizeof(char *) * (size_t)slot_cap);
    g_batches = xmalloc(sizeof(batch_t) * (size_t)batch_cap);
    while (getline(&line, &cap, f) > 0) {
        line[strcspn(line, "\n")] = '\0';
        if (line[0] == 'S' && (line[2] == 'g' || line[2] == 'o') && line[3] == ' ') {
            if (g_nslots == slot_cap) {
                slot_cap *= 2;
                g_slots = realloc(g_slots, sizeof(char *) * (size_t)slot_cap);
                if (!g_slots)
                    die("out of memory");
            }
            g_slots[g_nslots++] = strdup(line + 4);
        } else if (line[0] == 'B') {
            if (g_nbatches == batch_cap) {
                batch_cap *= 2;
                g_batches = realloc(g_batches, sizeof(batch_t) * (size_t)batch_cap);
                if (!g_batches)
                    die("out of memory");
            }
            batch_t *b = &g_batches[g_nbatches++];
            char *p = line + 1;
            b->cls = (int)strtol(p, &p, 10);
            b->n = (int)strtol(p, &p, 10);
            if (b->cls <= C_REF || b->cls >= NCLASS || b->n < 1 || b->n > MAX_BATCH)
                die("bad batch line");
            b->slots = xmalloc(sizeof(int) * (size_t)b->n);
            for (int i = 0; i < b->n; i++) {
                b->slots[i] = (int)strtol(p, &p, 10);
                if (b->slots[i] < 0 || b->slots[i] >= g_nslots)
                    die("batch names an unknown slot");
            }
        }
    }
    free(line);
    fclose(f);
    if (g_nbatches == 0)
        die("plan has no batches");
}

static void push_sample(samples_t *s, long long end_ns, long long ns) {
    if (s->n == s->cap) {
        if (s->cap >= MAX_SAMPLES)
            return; /* keep counting calls, stop storing samples */
        s->cap = s->cap ? s->cap * 2 : 4096;
        s->v = realloc(s->v, sizeof(sample_t) * s->cap);
        if (!s->v)
            die("out of memory");
    }
    s->v[s->n].t_us = (uint32_t)((end_ns - g_ready_ns) / 1000);
    s->v[s->n++].ns = ns > UINT32_MAX ? UINT32_MAX : (uint32_t)ns;
}

static void push_event(worker_t *w, int slot, long long t, const char *value) {
    if (w->nev == w->evcap) {
        w->evcap = w->evcap ? w->evcap * 2 : 256;
        w->ev = realloc(w->ev, sizeof(event_t) * w->evcap);
        if (!w->ev)
            die("out of memory");
    }
    event_t *e = &w->ev[w->nev++];
    e->slot = slot;
    e->t_ns = t;
    e->value = value ? strdup(value) : NULL;
}

static uint64_t fnv1a(const unsigned char *p, size_t n, uint64_t h) {
    for (size_t i = 0; i < n; i++) {
        h ^= p[i];
        h *= 1099511628211ULL;
    }
    return h;
}

/* read, hash and close one opened file; record an event when it changed */
static void check_open(worker_t *w, int slot, int fd, long long t) {
    char text[64];
    uint64_t h;
    if (fd < 0) {
        snprintf(text, sizeof text, "ERR:%d", errno);
        h = fnv1a((const unsigned char *)text, strlen(text), 1);
    } else {
        unsigned char buf[8192];
        size_t total = 0;
        h = 14695981039346656037ULL;
        for (;;) {
            ssize_t got = read(fd, buf, sizeof buf);
            if (got < 0 && errno == EINTR)
                continue;
            if (got <= 0)
                break;
            h = fnv1a(buf, (size_t)got, h);
            total += (size_t)got;
        }
        close(fd);
        snprintf(text, sizeof text, "%zu:%016llx", total, (unsigned long long)h);
    }
    if (!w->seen[slot] || w->last_hash[slot] != h) {
        w->seen[slot] = 1;
        w->last_hash[slot] = h;
        push_event(w, slot, t, text);
    }
}

static void run_ref(worker_t *w) {
    long long t0 = now_ns();
    if (reference_batch(g_plan_path) != 0)
        die("cannot stat the plan");
    long long t1 = now_ns();
    push_sample(&w->samples[C_REF], t1, t1 - t0);
}

/* one batch; returns the clock reading at its end */
static long long run_batch(worker_t *w, const batch_t *b, int timed) {
    const char *res[MAX_BATCH];
    int fds[MAX_BATCH];
    long long t0 = now_ns(), t1;
    int is_getenv = b->cls == C_UNREG || b->cls == C_HIT;
    if (w->span && timed) {
        for (int i = 0; i < b->n; i++) {
            const char *text = g_slots[b->slots[i]];
            long long s0 = now_ns();
            if (is_getenv)
                res[i] = getenv(text);
            else
                fds[i] = open(text, O_RDONLY);
            long long s1 = now_ns();
            push_sample(&w->samples[b->cls], s1, s1 - s0);
        }
        t1 = now_ns();
    } else {
        if (is_getenv) {
            for (int i = 0; i < b->n; i++)
                res[i] = getenv(g_slots[b->slots[i]]);
        } else {
            for (int i = 0; i < b->n; i++)
                fds[i] = open(g_slots[b->slots[i]], O_RDONLY);
        }
        t1 = now_ns();
        if (timed)
            push_sample(&w->samples[b->cls], t1, t1 - t0);
    }
    if (timed)
        w->calls[b->cls] += (unsigned long long)b->n;
    /* answer checks stay outside the timed region */
    for (int i = 0; i < b->n; i++) {
        int slot = b->slots[i];
        if (!is_getenv) {
            check_open(w, slot, fds[i], t1);
        } else if (res[i] != w->last[slot]) {
            w->last[slot] = res[i];
            push_event(w, slot, t1, res[i]);
        }
    }
    return t1;
}

static void worker_init(worker_t *w, int id, int span) {
    memset(w, 0, sizeof *w);
    w->id = id;
    w->span = span;
    w->last = xmalloc(sizeof(char *) * (size_t)g_nslots);
    for (int i = 0; i < g_nslots; i++)
        w->last[i] = &UNSEEN;
    w->last_hash = xmalloc(sizeof(uint64_t) * (size_t)g_nslots);
    w->seen = xmalloc((size_t)g_nslots);
}

static void warm_pass(worker_t *w) {
    for (int b = 0; b < g_nbatches; b++)
        run_batch(w, &g_batches[b], 0);
}

static void *timed_loop(void *arg) {
    worker_t *w = arg;
    int b = w->start_batch, done = 0;
    w->start_ns = now_ns();
    long long t;
    do {
        t = run_batch(w, &g_batches[b], 1);
        if (++b == g_nbatches)
            b = 0;
        if (++done % REF_EVERY == 0)
            run_ref(w);
    } while (t < w->deadline_ns);
    w->end_ns = t;
    warm_pass(w);
    return NULL;
}

static long rss_kb(void) {
    FILE *f = fopen("/proc/self/status", "r");
    if (!f)
        return -1;
    char line[256];
    long kb = -1;
    while (fgets(line, sizeof line, f))
        if (sscanf(line, "VmRSS: %ld", &kb) == 1)
            break;
    fclose(f);
    return kb;
}

static void write_samples(const worker_t *ws, int nw, const char *path) {
    FILE *f = fopen(path, "wb");
    if (!f)
        die("cannot write samples");
    for (int t = 0; t < nw; t++)
        for (uint32_t c = 0; c < NCLASS; c++)
            for (size_t i = 0; i < ws[t].samples[c].n; i++) {
                uint32_t rec[3] = {c, ws[t].samples[c].v[i].t_us, ws[t].samples[c].v[i].ns};
                if (fwrite(rec, sizeof rec, 1, f) != 1)
                    die("cannot write samples");
            }
    if (fclose(f) != 0)
        die("cannot write samples");
}

static void print_events(const worker_t *w) {
    for (size_t i = 0; i < w->nev; i++) {
        const event_t *e = &w->ev[i];
        if (e->value)
            printf("ev %d %d %lld 1 %s\n", w->id, e->slot, e->t_ns, e->value);
        else
            printf("ev %d %d %lld 0\n", w->id, e->slot, e->t_ns);
    }
}

int main(int argc, char **argv) {
    if (argc != 7)
        die("usage: mixdriver PLAN batch|span SECONDS THREADS FIRST_NAME SAMPLES");
    const char *mode = argv[2];
    int span = strcmp(mode, "span") == 0;
    if (!span && strcmp(mode, "batch") != 0)
        die("unknown mode");
    double seconds = atof(argv[3]);
    int nthreads = atoi(argv[4]);
    if (nthreads < 1 || nthreads > 64)
        die("THREADS must be 1..64");

    /* the first intercepted call of the process pays the shim's init */
    long long f0 = now_ns();
    const char *first = getenv(argv[5]);
    long long first_ns = now_ns() - f0;
    printf("first_call_ns %lld\n", first_ns);
    printf("first %d %s\n", first != NULL, first ? first : "");

    g_plan_path = argv[1];
    load_plan(argv[1]);
    worker_t warm;
    worker_init(&warm, 0, 0);
    long long w0 = now_ns();
    warm_pass(&warm);
    printf("warm_ns %lld\n", now_ns() - w0);
    long rss_start = rss_kb();
    long long ready_ns = now_ns();
    long long deadline = ready_ns + (long long)(seconds * 1e9);
    g_ready_ns = ready_ns;
    printf("ready %lld %lld\n", ready_ns, deadline);
    fflush(stdout);

    worker_t *workers = xmalloc(sizeof(worker_t) * (size_t)nthreads);
    for (int i = 0; i < nthreads; i++) {
        worker_init(&workers[i], i + 1, span);
        workers[i].start_batch = (int)((long long)i * g_nbatches / nthreads);
        workers[i].deadline_ns = deadline;
    }
    if (nthreads == 1) {
        timed_loop(&workers[0]); /* keep the process single-threaded */
    } else {
        pthread_t *tids = xmalloc(sizeof(pthread_t) * (size_t)nthreads);
        for (int i = 0; i < nthreads; i++)
            if (pthread_create(&tids[i], NULL, timed_loop, &workers[i]) != 0)
                die("pthread_create failed");
        for (int i = 0; i < nthreads; i++)
            pthread_join(tids[i], NULL);
        free(tids);
    }

    printf("rss_kb %ld %ld\n", rss_start, rss_kb());
    unsigned long long timed_calls = 0;
    long long start = 0, end = 0;
    for (int t = 0; t < nthreads; t++) {
        const worker_t *w = &workers[t];
        if (t == 0 || w->start_ns < start)
            start = w->start_ns;
        if (w->end_ns > end)
            end = w->end_ns;
        for (int c = 0; c < NCLASS; c++)
            timed_calls += w->calls[c];
    }
    printf("timed %llu %lld\n", timed_calls, end - start);

    write_samples(workers, nthreads, argv[6]);

    print_events(&warm);
    for (int t = 0; t < nthreads; t++)
        print_events(&workers[t]);
    printf("end\n");
    return 0;
}
