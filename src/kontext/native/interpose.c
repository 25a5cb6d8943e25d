/* LD_PRELOAD shim: intercepts getenv, secure_getenv and read-only
 * open/open64/fopen/fopen64, plus the _FORTIFY_SOURCE entry points
 * __open_2/__open64_2, so running programs see contextually resolved
 * configuration.
 *
 * Ground rules, in order:
 *   fail open   - on any internal problem the real call happens instead
 *   no crashes  - never propagate errors into the host process
 *   stable      - pointers handed to the app stay valid forever; getenv
 *                 answers are interned per name and never freed
 *
 * Initialization is lazy: the constructor only samples the monotonic clock
 * for the trace start record and registers the fork handlers. Everything
 * else (config env vars, spec file, state file, generation word, trace fd)
 * happens under a mutex at the first intercepted call. One process-wide
 * mutex guards all shim state; real work done while it is held is tiny
 * (a word compare, an array read, one write per trace record).
 *
 * Staleness: writers store the published state's generation as 8 bytes in
 * native byte order at offset 0 of <state>.lock, after the rename. The shim
 * maps that word read-only and reloads the state file only when the word
 * changed. Once per coarse-clock second it stats both files anyway, so hand
 * edits and a recreated lock file show within a second. A lock file that is
 * missing, shorter than 8 bytes, a symlink, not a regular file, hard-linked,
 * not owned by the effective uid or group/world-writable is never mapped
 * (another user must not be able to truncate it, SIGBUS); the shim then
 * stats the state file on every registered call and retries the mapping at
 * most once a second. The state file stays the source of truth.
 *
 * Shadow files: a registered read-only open gets a file rendered into a
 * mkdtemp directory under $TMPDIR. The process that made the directory
 * removes it in its destructor; a forked child makes its own. Exits that
 * skip destructors (_exit, exec, a fatal signal) leave it behind.
 *
 * Answers: every getenv/ key of the spec owns a slot holding its answer for
 * the state adopted last (g_epoch grows with every adopted state), so a
 * steady registered hit makes no lookup. Values are interned in the slot,
 * so A->B->A flips return the first pointer again.
 *
 * Config environment variables:
 *   KONTEXT_SPEC        spec file path; unset or unparseable -> passthrough
 *   KONTEXT_STATE       state file path; default ${XDG_RUNTIME_DIR:-/tmp}/kontext/state.ks
 *   KONTEXT_TRACE       trace file path (append); unset -> no tracing
 *   KONTEXT_STARTUP_MS  recorded in the start record for later analysis
 */

#define _GNU_SOURCE

#include "core.h"

#include <dlfcn.h>
#include <errno.h>
#include <fcntl.h>
#include <limits.h>
#include <pthread.h>
#include <stdarg.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/auxv.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <time.h>
#include <unistd.h>

#define KX_EXPORT __attribute__((visibility("default")))

extern char **environ;

/* ------------------------------------------------------------------ */
/* globals (all guarded by g_lock unless noted)                        */
/* ------------------------------------------------------------------ */

static pthread_mutex_t g_lock = PTHREAD_MUTEX_INITIALIZER;
static __thread int t_inside = 0; /* reentrancy guard, thread-local */

static int g_initialized = 0;
static int g_active = 0;
static long long g_t0_ns = 0; /* set by constructor, lock-free single write */

static kx_keyset g_spec;
static kx_state g_state;
static char g_state_path[PATH_MAX];
static int g_trace_fd = -1;

typedef struct {
    int valid;
    unsigned long long dev;
    unsigned long long ino;
    long long mtime_ns;
    long long size;
} kx_statmeta;

static kx_statmeta g_state_stat;

static unsigned long long g_calls, g_hits, g_reloads, g_fallthroughs;

/* generation word: offset 0 of <state>.lock, mapped read-only */
static char g_lock_path[PATH_MAX + 8];
static const unsigned long long *g_word = NULL; /* NULL: stat on every call */
static unsigned long long g_word_dev, g_word_ino, g_word_seen;
static long long g_checked_s = -1; /* coarse second of the last full check */

/* answer slots, one per key of the spec's contiguous getenv/ range */
typedef struct kx_interned {
    struct kx_interned *next;
    char value[];
} kx_interned;

typedef struct {
    unsigned long long epoch; /* g_epoch the answer belongs to; 0 is never current */
    const char *answer;       /* interned value, NULL when the lookup is absent */
    kx_interned *values;      /* every value this name answered, kept forever */
} kx_slot;

static kx_slot *g_slots = NULL;
static size_t g_slots_start = 0, g_slots_len = 0;
static unsigned long long g_epoch = 1; /* grows with every adopted state */

/* shadow file registry, one per template prefix */
typedef struct kx_shadow {
    char *prefix;
    char *path;
    long long gen;
    struct kx_shadow *next;
} kx_shadow;

static kx_shadow *g_shadows = NULL;
static char g_shadow_dir[PATH_MAX];
static int g_shadow_dir_state = 0; /* 0 untried, 1 ok, -1 failed */
static pid_t g_shadow_pid;          /* the process that made g_shadow_dir */
static int g_shadow_seq = 0;

/* ------------------------------------------------------------------ */
/* tiny helpers                                                        */
/* ------------------------------------------------------------------ */

static char *xdup(const char *s) {
    if (!s)
        return NULL;
    size_t n = strlen(s);
    char *out = (char *)malloc(n + 1);
    if (out)
        memcpy(out, s, n + 1);
    return out;
}

/* libc declares the name and path arguments nonnull, so the compiler may
 * drop a plain NULL test of them; the empty asm hides where p came from */
static int kx_is_null(const void *p) {
    __asm__("" : "+r"(p));
    return p == NULL;
}

static long long kx_now_ns(void) {
    struct timespec ts;
    if (clock_gettime(CLOCK_MONOTONIC, &ts) != 0)
        return 0;
    return (long long)ts.tv_sec * 1000000000LL + ts.tv_nsec;
}

/* authoritative environment scan; avoids recursing through interposers */
static char *kx_env_scan(const char *name) {
    if (!name || !*name || !environ)
        return NULL;
    size_t n = strlen(name);
    for (char **e = environ; *e; e++) {
        if (strncmp(*e, name, n) == 0 && (*e)[n] == '=')
            return *e + n + 1;
    }
    return NULL;
}

/* ------------------------------------------------------------------ */
/* real libc entry points                                              */
/* ------------------------------------------------------------------ */

static int kx_real_open(const char *path, int flags, mode_t mode) {
    static int (*fn)(const char *, int, mode_t);
    if (!fn)
        fn = (int (*)(const char *, int, mode_t))dlsym(RTLD_NEXT, "open");
    if (!fn) {
        errno = ENOSYS;
        return -1;
    }
    return fn(path, flags, mode);
}

static int kx_real_open64(const char *path, int flags, mode_t mode) {
    static int (*fn)(const char *, int, mode_t);
    if (!fn)
        fn = (int (*)(const char *, int, mode_t))dlsym(RTLD_NEXT, "open64");
    if (!fn)
        return kx_real_open(path, flags, mode);
    return fn(path, flags, mode);
}

static FILE *kx_real_fopen(const char *path, const char *mode) {
    static FILE *(*fn)(const char *, const char *);
    if (!fn)
        fn = (FILE * (*)(const char *, const char *)) dlsym(RTLD_NEXT, "fopen");
    if (!fn) {
        errno = ENOSYS;
        return NULL;
    }
    return fn(path, mode);
}

static FILE *kx_real_fopen64(const char *path, const char *mode) {
    static FILE *(*fn)(const char *, const char *);
    if (!fn)
        fn = (FILE * (*)(const char *, const char *)) dlsym(RTLD_NEXT, "fopen64");
    if (!fn)
        return kx_real_fopen(path, mode);
    return fn(path, mode);
}

/* ------------------------------------------------------------------ */
/* trace records                                                       */
/* ------------------------------------------------------------------ */

/* escape tab, newline, cr, backslash into out (bounded, truncating) */
static void kx_escape(const char *in, char *out, size_t cap) {
    size_t w = 0;
    if (!in)
        in = "";
    for (const char *p = in; *p && w + 2 < cap; p++) {
        char c = *p;
        if (c == '\t' || c == '\n' || c == '\r' || c == '\\') {
            out[w++] = '\\';
            out[w++] = c == '\t' ? 't' : (c == '\n' ? 'n' : (c == '\r' ? 'r' : '\\'));
        } else {
            out[w++] = c;
        }
    }
    out[w] = '\0';
}

/* write one record; lock must be held; fields after kind may be NULL */
static void kx_trace(const char *kind, const char *f3, const char *f4, const char *f5) {
    if (g_trace_fd < 0)
        return;
    char e3[512], e4[512], e5[512];
    char line[1700];
    int len;
    long long ns = kx_now_ns();
    if (f5) {
        kx_escape(f3, e3, sizeof e3);
        kx_escape(f4, e4, sizeof e4);
        kx_escape(f5, e5, sizeof e5);
        len = snprintf(line, sizeof line, "%lld\t%s\t%s\t%s\t%s\n", ns, kind, e3, e4, e5);
    } else if (f4) {
        kx_escape(f3, e3, sizeof e3);
        kx_escape(f4, e4, sizeof e4);
        len = snprintf(line, sizeof line, "%lld\t%s\t%s\t%s\n", ns, kind, e3, e4);
    } else if (f3) {
        kx_escape(f3, e3, sizeof e3);
        len = snprintf(line, sizeof line, "%lld\t%s\t%s\n", ns, kind, e3);
    } else {
        len = snprintf(line, sizeof line, "%lld\t%s\n", ns, kind);
    }
    if (len > 0) {
        if ((size_t)len >= sizeof line)
            len = (int)sizeof line - 1;
        ssize_t ignored = write(g_trace_fd, line, (size_t)len);
        (void)ignored;
    }
}

static void kx_trace_getenv(const char *name, const char *outcome, const char *value) {
    kx_trace("getenv", name, outcome, value ? value : "");
}

/* ------------------------------------------------------------------ */
/* state loading                                                       */
/* ------------------------------------------------------------------ */

/* a regular file is read with one read() into a buffer of its size */
static int kx_read_file(const char *path, char **data_out, size_t *len_out) {
    int fd = kx_real_open(path, O_RDONLY | O_CLOEXEC, 0);
    if (fd < 0)
        return -1;
    struct stat st;
    int regular = fstat(fd, &st) == 0 && S_ISREG(st.st_mode);
    size_t cap = regular ? (size_t)st.st_size + 1 : 8192, len = 0;
    char *data = (char *)malloc(cap);
    if (!data) {
        close(fd);
        return -1;
    }
    for (;;) {
        if (len == cap) {
            cap *= 2;
            char *grown = (char *)realloc(data, cap);
            if (!grown) {
                free(data);
                close(fd);
                return -1;
            }
            data = grown;
        }
        ssize_t got = read(fd, data + len, cap - len);
        if (got < 0) {
            if (errno == EINTR)
                continue;
            free(data);
            close(fd);
            return -1;
        }
        if (got == 0)
            break;
        len += (size_t)got;
        if (regular && len < cap)
            break; /* a short read of a regular file ends at its end */
    }
    close(fd);
    *data_out = data;
    *len_out = len;
    return 0;
}

static int kx_stat_meta(const char *path, kx_statmeta *meta) {
    struct stat st;
    if (stat(path, &st) != 0)
        return -1;
    meta->valid = 1;
    meta->dev = (unsigned long long)st.st_dev;
    meta->ino = (unsigned long long)st.st_ino;
    meta->mtime_ns = (long long)st.st_mtim.tv_sec * 1000000000LL + st.st_mtim.tv_nsec;
    meta->size = (long long)st.st_size;
    return 0;
}

static int kx_stat_equal(const kx_statmeta *a, const kx_statmeta *b) {
    return a->valid && b->valid && a->dev == b->dev && a->ino == b->ino &&
           a->mtime_ns == b->mtime_ns && a->size == b->size;
}

/* (re)load the state file; lock held. initial=1 adopts any generation. */
static void kx_load_state(int initial) {
    kx_statmeta meta = {0};
    if (kx_stat_meta(g_state_path, &meta) != 0)
        return; /* missing or unstattable: keep what we have */
    if (!initial && kx_stat_equal(&meta, &g_state_stat))
        return; /* metadata unchanged: no read */

    char *data = NULL;
    size_t len = 0;
    if (kx_read_file(g_state_path, &data, &len) != 0) {
        g_state_stat = meta; /* do not thrash on a persistently unreadable file */
        kx_trace("note", "state-read-failed", g_state_path, NULL);
        return;
    }
    kx_state fresh;
    kx_error err;
    int rc = kx_parse_state(data, len, &fresh, &err);
    free(data);
    if (rc != KX_OK) {
        g_state_stat = meta;
        kx_trace("note", "state-corrupt", err.message, NULL);
        return;
    }
    if (initial || fresh.generation > g_state.generation) {
        kx_state_free(&g_state);
        g_state = fresh;
        g_epoch++;
        if (!initial)
            g_reloads++;
    } else {
        kx_state_free(&fresh);
    }
    g_state_stat = meta;
}

static long long kx_coarse_s(void) {
    struct timespec ts;
    if (clock_gettime(CLOCK_MONOTONIC_COARSE, &ts) != 0)
        return 0;
    return (long long)ts.tv_sec;
}

/* only a file no other user can truncate under the mapping (SIGBUS), and
 * not a second name of some unrelated file of ours (a hard link); symlinks
 * are never followed */
static int kx_word_usable(const struct stat *st) {
    return S_ISREG(st->st_mode) && st->st_uid == geteuid() && st->st_nlink == 1 &&
           !(st->st_mode & (S_IWGRP | S_IWOTH)) && st->st_size >= (off_t)sizeof *g_word;
}

/* map the generation word if the lock file is usable; lock held */
static void kx_word_map(void) {
    int fd = kx_real_open(g_lock_path, O_RDONLY | O_CLOEXEC | O_NOFOLLOW, 0);
    if (fd < 0)
        return;
    struct stat st;
    void *map = MAP_FAILED;
    if (fstat(fd, &st) == 0 && kx_word_usable(&st))
        map = mmap(NULL, sizeof *g_word, PROT_READ, MAP_SHARED, fd, 0);
    close(fd);
    if (map == MAP_FAILED)
        return;
    g_word = (const unsigned long long *)map;
    g_word_dev = (unsigned long long)st.st_dev;
    g_word_ino = (unsigned long long)st.st_ino;
}

/* keep the mapping while the lock file is the same usable file, else
 * drop it and map whatever usable file is there now; lock held */
static void kx_word_revalidate(void) {
    struct stat st;
    int usable = lstat(g_lock_path, &st) == 0 && kx_word_usable(&st);
    if (g_word && usable && (unsigned long long)st.st_dev == g_word_dev &&
        (unsigned long long)st.st_ino == g_word_ino)
        return;
    if (g_word)
        munmap((void *)g_word, sizeof *g_word);
    g_word = NULL;
    if (usable)
        kx_word_map();
}

/* reload the state when the word moved; once a second stat both files */
static void kx_refresh_if_stale(void) {
    if (!g_active)
        return;
    long long now = kx_coarse_s();
    int due = now != g_checked_s;
    if (due) {
        g_checked_s = now;
        kx_word_revalidate();
    }
    if (g_word) {
        unsigned long long word = __atomic_load_n(g_word, __ATOMIC_ACQUIRE);
        if (word == g_word_seen && !due)
            return;
        g_word_seen = word; /* before the reload: a later publish moves it again */
    }
    kx_load_state(0);
}

/* ------------------------------------------------------------------ */
/* lazy initialization                                                 */
/* ------------------------------------------------------------------ */

/* fork while another thread holds g_lock must not leave the child's copy
 * locked forever; a thread forking from inside the shim (a signal handler)
 * may already hold it, so it takes nothing */
static void kx_fork_prepare(void) {
    if (!t_inside)
        pthread_mutex_lock(&g_lock);
}

/* same thread as prepare, and t_inside has not changed since */
static void kx_fork_parent(void) {
    if (!t_inside)
        pthread_mutex_unlock(&g_lock);
}

/* the parent removes its shadow files when it exits, so the child renders
 * its own into a directory of its own */
static void kx_fork_child(void) {
    pthread_mutex_init(&g_lock, NULL);
    g_shadows = NULL;
    g_shadow_dir_state = 0;
}

__attribute__((constructor)) static void kx_on_load(void) {
    /* only sample the clock and register the fork handlers; real setup
     * stays lazy */
    if (!g_t0_ns)
        g_t0_ns = kx_now_ns();
    pthread_atfork(kx_fork_prepare, kx_fork_parent, kx_fork_child);
}

static void kx_ensure_init(void) {
    if (g_initialized)
        return;
    g_initialized = 1;
    if (!g_t0_ns)
        g_t0_ns = kx_now_ns();
    kx_keyset_init(&g_spec);
    kx_state_init(&g_state);

    const char *spec_path = kx_env_scan("KONTEXT_SPEC");
    const char *trace_path = kx_env_scan("KONTEXT_TRACE");
    const char *startup_ms = kx_env_scan("KONTEXT_STARTUP_MS");
    const char *state_path = kx_env_scan("KONTEXT_STATE");

    if (trace_path && *trace_path)
        g_trace_fd = kx_real_open(trace_path, O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);

    if (state_path && *state_path) {
        snprintf(g_state_path, sizeof g_state_path, "%s", state_path);
    } else {
        const char *runtime = kx_env_scan("XDG_RUNTIME_DIR");
        if (!runtime || !*runtime)
            runtime = "/tmp";
        snprintf(g_state_path, sizeof g_state_path, "%s/kontext/state.ks", runtime);
    }

    char failure[200] = "";
    if (spec_path && *spec_path) {
        char *data = NULL;
        size_t len = 0;
        if (kx_read_file(spec_path, &data, &len) != 0) {
            snprintf(failure, sizeof failure, "spec unreadable (errno %d)", errno);
        } else {
            kx_error err;
            size_t start, end;
            if (kx_parse_spec(data, len, &g_spec, &err) != KX_OK) {
                snprintf(failure, sizeof failure, "spec parse failed: line %d: %s",
                         err.line, err.message);
            } else if (kx_keyset_below(&g_spec, "getenv", &start, &end) != KX_OK ||
                       !(g_slots = (kx_slot *)calloc(end > start ? end - start : 1,
                                                     sizeof *g_slots))) {
                snprintf(failure, sizeof failure, "answer slots: out of memory");
            } else {
                g_slots_start = start;
                g_slots_len = end - start;
                g_active = 1;
            }
            free(data);
        }
    }

    if (g_active) {
        snprintf(g_lock_path, sizeof g_lock_path, "%s.lock", g_state_path);
        g_checked_s = kx_coarse_s();
        kx_word_map();
        if (g_word) /* read before the load, as in kx_refresh_if_stale */
            g_word_seen = __atomic_load_n(g_word, __ATOMIC_ACQUIRE);
        kx_load_state(1);
    }

    if (g_trace_fd >= 0) {
        char t0column[32];
        snprintf(t0column, sizeof t0column, "%lld", g_t0_ns);
        /* start record carries the constructor timestamp in its value field
         * so analysis has the true process t0, not the first-call time */
        char startrec[64];
        snprintf(startrec, sizeof startrec, "%s", g_active ? "active" : "passthrough");
        kx_trace("start", startrec, startup_ms && *startup_ms ? startup_ms : "-", t0column);
    }
    if (failure[0] && g_trace_fd >= 0)
        kx_trace("init-failed", failure, NULL, NULL);
}

__attribute__((destructor)) static void kx_on_unload(void) {
    if (pthread_mutex_trylock(&g_lock) != 0)
        return;
    if (g_trace_fd >= 0 && g_initialized) {
        char detail[160];
        snprintf(detail, sizeof detail, "calls=%llu;hits=%llu;reloads=%llu;fallthroughs=%llu",
                 g_calls, g_hits, g_reloads, g_fallthroughs);
        kx_trace("counters", detail, NULL, NULL);
    }
    /* a child forked without the fork handlers still lists the parent's
     * shadow files: only the process that made the directory removes it */
    if (g_shadow_dir_state == 1 && getpid() == g_shadow_pid) {
        for (kx_shadow *entry = g_shadows; entry; entry = entry->next)
            unlink(entry->path);
        rmdir(g_shadow_dir);
    }
    pthread_mutex_unlock(&g_lock);
}

/* ------------------------------------------------------------------ */
/* answer slots                                                        */
/* ------------------------------------------------------------------ */

/* the slot's stable copy of value, shared by every time it is the answer */
static const char *kx_intern(kx_slot *slot, const char *value) {
    for (kx_interned *v = slot->values; v; v = v->next)
        if (strcmp(v->value, value) == 0)
            return v->value;
    size_t n = strlen(value) + 1;
    kx_interned *v = (kx_interned *)malloc(sizeof *v + n);
    if (!v)
        return NULL;
    memcpy(v->value, value, n);
    v->next = slot->values;
    slot->values = v;
    return v->value;
}

static char *kx_getenv_fallthrough(const char *name) {
    g_fallthroughs++;
    char *result = kx_env_scan(name);
    kx_trace_getenv(name, result ? "fallthrough" : "null", result);
    return result;
}

/* a registered name: the slot answers, looked up again only after a new
 * state was adopted. Lookup errors are never cached. Lock held. */
static char *kx_getenv_registered(const char *name, const char *key, const kx_key *registered) {
    kx_refresh_if_stale();
    size_t i = (size_t)(registered - g_spec.items) - g_slots_start;
    if (i >= g_slots_len) /* every getenv/ key lies in the slot range */
        return kx_getenv_fallthrough(name);
    kx_slot *slot = &g_slots[i];
    if (slot->epoch != g_epoch) {
        kx_result res;
        kx_error err = {0};
        int rc = kx_lookup(&g_spec, key, &g_state, &res, &err);
        int cached = 1;
        if (rc == KX_OK) {
            slot->answer = kx_intern(slot, res.value);
            cached = slot->answer != NULL; /* allocation failed: behave like a miss */
        } else if (rc == KX_ABSENT) {
            slot->answer = NULL;
        } else {
            cached = 0;
            kx_trace("note", "lookup-error", err.message, NULL);
        }
        kx_result_free(&res);
        if (!cached)
            return kx_getenv_fallthrough(name);
        slot->epoch = g_epoch;
    }
    if (!slot->answer)
        return kx_getenv_fallthrough(name);
    g_hits++;
    kx_trace_getenv(name, "hit", slot->answer);
    return (char *)slot->answer;
}

/* ------------------------------------------------------------------ */
/* getenv                                                              */
/* ------------------------------------------------------------------ */

static char *kx_getenv_impl(const char *name) {
    char stack_key[512];
    char *key = NULL;
    char *result = NULL;

    pthread_mutex_lock(&g_lock);
    kx_ensure_init();
    g_calls++;

    const kx_key *registered = NULL;
    if (g_active) {
        size_t need = 7 + strlen(name) + 1; /* "getenv/" */
        key = need <= sizeof stack_key ? stack_key : (char *)malloc(need);
        if (key) {
            memcpy(key, "getenv/", 7);
            strcpy(key + 7, name);
            registered = kx_keyset_get(&g_spec, key);
        }
    }

    result = registered ? kx_getenv_registered(name, key, registered)
                        : kx_getenv_fallthrough(name);

    if (key && key != stack_key)
        free(key);
    pthread_mutex_unlock(&g_lock);
    return result;
}

KX_EXPORT char *getenv(const char *name) {
    if (kx_is_null(name))
        return NULL;
    if (t_inside)
        return kx_env_scan(name);
    t_inside = 1;
    char *result = kx_getenv_impl(name);
    t_inside = 0;
    return result;
}

/* setuid/setgid programs get no answers at all, as from libc */
KX_EXPORT char *secure_getenv(const char *name) {
    if (getauxval(AT_SECURE))
        return NULL;
    return getenv(name);
}

/* ------------------------------------------------------------------ */
/* shadow files                                                        */
/* ------------------------------------------------------------------ */

static int kx_ensure_shadow_dir(void) {
    if (g_shadow_dir_state != 0)
        return g_shadow_dir_state;
    const char *base = kx_env_scan("TMPDIR");
    if (!base || !*base)
        base = "/tmp";
    snprintf(g_shadow_dir, sizeof g_shadow_dir, "%s/kontext-shadow-XXXXXX", base);
    if (mkdtemp(g_shadow_dir) == NULL) {
        g_shadow_dir_state = -1;
        return -1;
    }
    g_shadow_pid = getpid();
    g_shadow_dir_state = 1;
    return 1;
}

/* render (or reuse) the shadow file for a template prefix; lock held.
 * Returns the path, or NULL to fail open. */
static const char *kx_shadow_render(const char *prefix) {
    kx_shadow *entry = g_shadows;
    while (entry && strcmp(entry->prefix, prefix) != 0)
        entry = entry->next;
    if (entry && entry->gen == g_state.generation)
        return entry->path;

    if (!kx_name_valid(prefix))
        return NULL;
    size_t start, end;
    if (kx_keyset_below(&g_spec, prefix, &start, &end) != KX_OK || start == end)
        return NULL; /* nothing below the prefix: nothing to serve */

    size_t prefix_len = strlen(prefix);
    char *content = NULL;
    size_t content_len = 0, content_cap = 0;
    for (size_t i = start; i < end; i++) {
        const kx_key *key = &g_spec.items[i];
        kx_result res;
        kx_error err;
        int rc = kx_lookup(&g_spec, key->name, &g_state, &res, &err);
        if (rc == KX_OK) {
            const char *rel = key->name + prefix_len + 1;
            size_t need = strlen(rel) + 1 + strlen(res.value) + 1;
            if (content_len + need + 1 > content_cap) {
                size_t cap = content_cap ? content_cap : 256;
                while (cap < content_len + need + 1)
                    cap *= 2;
                char *grown = (char *)realloc(content, cap);
                if (!grown) {
                    free(content);
                    kx_result_free(&res);
                    return NULL;
                }
                content = grown;
                content_cap = cap;
            }
            content_len += (size_t)snprintf(content + content_len, content_cap - content_len,
                                            "%s=%s\n", rel, res.value);
            kx_result_free(&res);
        } else if (rc == KX_ABSENT) {
            kx_result_free(&res);
        } else {
            kx_result_free(&res);
            kx_trace("note", "shadow-render-error", key->name, err.message);
            free(content);
            return NULL;
        }
    }

    if (kx_ensure_shadow_dir() != 1) {
        free(content);
        return NULL;
    }

    char *path;
    if (entry) {
        path = entry->path;
    } else {
        char pathbuf[sizeof g_shadow_dir + 32];
        snprintf(pathbuf, sizeof pathbuf, "%s/s%d.conf", g_shadow_dir, g_shadow_seq++);
        path = xdup(pathbuf);
        if (!path) {
            free(content);
            return NULL;
        }
    }

    char tmp[PATH_MAX + 8];
    snprintf(tmp, sizeof tmp, "%s.tmp", path);
    int fd = kx_real_open(tmp, O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0600);
    int ok = fd >= 0;
    if (ok && content_len > 0) {
        size_t done = 0;
        while (done < content_len) {
            ssize_t put = write(fd, content + done, content_len - done);
            if (put < 0) {
                if (errno == EINTR)
                    continue;
                ok = 0;
                break;
            }
            done += (size_t)put;
        }
    }
    if (fd >= 0)
        close(fd);
    if (ok && rename(tmp, path) != 0)
        ok = 0;
    free(content);
    if (!ok) {
        unlink(tmp);
        if (!entry)
            free(path);
        return NULL;
    }

    if (!entry) {
        entry = (kx_shadow *)malloc(sizeof *entry);
        if (!entry) {
            /* file exists but we cannot remember it; fail open */
            free(path);
            return NULL;
        }
        entry->prefix = xdup(prefix);
        if (!entry->prefix) {
            free(path);
            free(entry);
            return NULL;
        }
        entry->path = path;
        entry->next = g_shadows;
        g_shadows = entry;
    }
    entry->gen = g_state.generation;
    return entry->path;
}

/* ------------------------------------------------------------------ */
/* open family                                                         */
/* ------------------------------------------------------------------ */

static int kx_flags_readonly(int flags) {
    if ((flags & O_ACCMODE) != O_RDONLY)
        return 0;
    if (flags & (O_CREAT | O_TRUNC | O_APPEND))
        return 0;
#ifdef O_TMPFILE
    if ((flags & O_TMPFILE) == O_TMPFILE)
        return 0;
#endif
    return 1;
}

static int kx_mode_readonly(const char *mode) {
    if (!mode || mode[0] != 'r')
        return 0;
    for (const char *p = mode; *p; p++)
        if (*p == '+' || *p == 'w' || *p == 'a')
            return 0;
    return 1;
}

/* textual canonicalization: cwd join plus . / .. / duplicate-slash
 * collapse; symlinks are not resolved (registered paths must match the
 * spelling programs use after normalization) */
static char *kx_canonical_path(const char *path) {
    if (!path || !*path)
        return NULL;
    char joined[2 * PATH_MAX];
    if (path[0] == '/') {
        if (snprintf(joined, sizeof joined, "%s", path) >= (int)sizeof joined)
            return NULL;
    } else {
        char cwd[PATH_MAX];
        if (!getcwd(cwd, sizeof cwd))
            return NULL;
        if (snprintf(joined, sizeof joined, "%s/%s", cwd, path) >= (int)sizeof joined)
            return NULL;
    }

    char *out = (char *)malloc(strlen(joined) + 2);
    if (!out)
        return NULL;
    size_t w = 0;
    const char *p = joined;
    while (*p) {
        while (*p == '/')
            p++;
        if (!*p)
            break;
        const char *seg = p;
        while (*p && *p != '/')
            p++;
        size_t seg_len = (size_t)(p - seg);
        if (seg_len == 1 && seg[0] == '.')
            continue;
        if (seg_len == 2 && seg[0] == '.' && seg[1] == '.') {
            while (w > 0 && out[w - 1] != '/')
                w--;
            if (w > 0)
                w--; /* drop the slash too */
            continue;
        }
        out[w++] = '/';
        memcpy(out + w, seg, seg_len);
        w += seg_len;
    }
    if (w == 0)
        out[w++] = '/';
    out[w] = '\0';
    return out;
}

/* shared open/fopen front half: decide whether a shadow file substitutes
 * for the canonical path. Returns a malloced shadow path (caller frees)
 * or NULL for "use the real file". */
static char *kx_shadow_for(const char *path) {
    char *canon = NULL;
    char *shadow_copy = NULL;

    pthread_mutex_lock(&g_lock);
    kx_ensure_init();
    if (!g_active)
        goto out;
    canon = kx_canonical_path(path);
    if (!canon)
        goto out;

    size_t need = 4 + strlen(canon) + 1; /* "open" + canonical path */
    char *keybuf = (char *)malloc(need);
    if (!keybuf)
        goto out;
    memcpy(keybuf, "open", 4);
    strcpy(keybuf + 4, canon);
    const kx_key *registered = kx_keyset_get(&g_spec, keybuf);
    free(keybuf);
    if (!registered)
        goto out;
    const char *prefix = kx_key_meta(registered, "template");
    if (!prefix || !*prefix)
        goto out;

    kx_refresh_if_stale();
    const char *shadow = kx_shadow_render(prefix);
    if (shadow) {
        shadow_copy = xdup(shadow);
        kx_trace("open", canon, "hit", shadow);
    } else {
        kx_trace("open", canon, "fallthrough", NULL);
    }

out:
    free(canon);
    pthread_mutex_unlock(&g_lock);
    return shadow_copy;
}

static int kx_open_impl(const char *path, int flags, mode_t mode, int is64) {
    if (!kx_flags_readonly(flags))
        return is64 ? kx_real_open64(path, flags, mode) : kx_real_open(path, flags, mode);
    char *shadow = kx_shadow_for(path);
    if (!shadow)
        return is64 ? kx_real_open64(path, flags, mode) : kx_real_open(path, flags, mode);
    int fd = is64 ? kx_real_open64(shadow, flags, mode) : kx_real_open(shadow, flags, mode);
    free(shadow);
    if (fd >= 0)
        return fd;
    /* shadow vanished or is unreadable: fail open to the real file */
    return is64 ? kx_real_open64(path, flags, mode) : kx_real_open(path, flags, mode);
}

static int kx_open_entry(const char *path, int flags, mode_t mode, int is64) {
    if (kx_is_null(path) || t_inside)
        return is64 ? kx_real_open64(path, flags, mode) : kx_real_open(path, flags, mode);
    t_inside = 1;
    int fd = kx_open_impl(path, flags, mode, is64);
    t_inside = 0;
    return fd;
}

KX_EXPORT int open(const char *path, int flags, ...) {
    mode_t mode = 0;
    if (flags & O_CREAT) {
        va_list ap;
        va_start(ap, flags);
        mode = (mode_t)va_arg(ap, int);
        va_end(ap);
    }
    return kx_open_entry(path, flags, mode, 0);
}

KX_EXPORT int open64(const char *path, int flags, ...) {
    mode_t mode = 0;
    if (flags & O_CREAT) {
        va_list ap;
        va_start(ap, flags);
        mode = (mode_t)va_arg(ap, int);
        va_end(ap);
    }
    return kx_open_entry(path, flags, mode, 1);
}

/* what _FORTIFY_SOURCE builds call for open()/open64() when the compiler
 * cannot see the flags and no mode is passed */
KX_EXPORT int __open_2(const char *path, int flags) {
    return kx_open_entry(path, flags, 0, 0);
}

KX_EXPORT int __open64_2(const char *path, int flags) {
    return kx_open_entry(path, flags, 0, 1);
}

static FILE *kx_fopen_entry(const char *path, const char *mode, int is64) {
    FILE *(*real)(const char *, const char *) = is64 ? kx_real_fopen64 : kx_real_fopen;
    if (kx_is_null(path) || !mode || t_inside || !kx_mode_readonly(mode))
        return real(path, mode);
    t_inside = 1;
    char *shadow = kx_shadow_for(path);
    FILE *handle = NULL;
    if (shadow) {
        handle = real(shadow, mode);
        free(shadow);
    }
    if (!handle) /* no shadow, or it vanished: the real file */
        handle = real(path, mode);
    t_inside = 0;
    return handle;
}

KX_EXPORT FILE *fopen(const char *path, const char *mode) {
    return kx_fopen_entry(path, mode, 0);
}

KX_EXPORT FILE *fopen64(const char *path, const char *mode) {
    return kx_fopen_entry(path, mode, 1);
}
