/* LD_PRELOAD shim: intercepts getenv, secure_getenv and read-only
 * open/open64/fopen/fopen64, plus the _FORTIFY_SOURCE entry points
 * __open_2/__open64_2, so running programs see contextually resolved
 * configuration.
 *
 * Substitution: each path entry is one KX_SUBSTITUTE over its real function,
 * found with dlsym(RTLD_NEXT) at its first use (kx_resolve). A call with a
 * path, made outside the shim (t_inside) and passing the entry's read-only
 * test, is made on the path's shadow file when kx_shadow_for gives one. When
 * that call fails it is retried on the caller's path, so a deleted shadow
 * file costs one failed call and never the open. Every other call goes to
 * the real function as it came.
 *
 * errno: the shim saves and restores it only around its own work that can
 * change it (first-call init and dlsym, a locked slot fill, getcwd, the
 * trace write, the retry), so every entry leaves errno as libc would, and
 * neither an unregistered call nor a current hit touches it.
 *
 * Ground rules, in order:
 *   fail open   - on any internal problem the real call happens instead
 *   no crashes  - never propagate errors into the host process
 *   stable      - pointers handed to the app stay valid forever; getenv
 *                 answers are interned per name and never freed
 *
 * Initialization is lazy: the constructor only samples the monotonic clock
 * for the trace start record and registers the fork handlers. Everything
 * else happens under g_lock at the first intercepted call, in this order:
 * config env vars and trace fd; the spec (below); the answer slots and name
 * tables; the generation word and state file. It ends by storing g_ready
 * with release. The spec, the name tables, the slot range and the trace fd
 * never change after that, so readers that load g_ready with acquire use
 * them without the lock. A traced process writes an init record with the
 * spec image's outcome and the time each stage took.
 *
 * Spec image: the parsed key set is one position-independent block
 * (core.h), and <spec>.kxi holds that block. The first call reads the spec
 * in small chunks while hashing it, maps the image and adopts it when the
 * file passes the generation word's rules below (regular, not a symlink, one
 * link, owned by the euid, not group/world-writable) and core.c's checks
 * pass: magic, version, byte order, the spec's length and hash equal to the
 * bytes just read, the checksum, and every offset in bounds. Otherwise it
 * parses the text and, if its euid owns the spec and it is not AT_SECURE,
 * writes the image (kx_write_file) for the next process. Content is the
 * only staleness rule, so a stale, damaged or foreign image costs a parse
 * and never changes an answer; deleting it is always safe.
 *
 * Locking: g_lock serializes every writer of shim state (reload, slot fill,
 * which renders a shadow file for a path). Readers go without it, traced or
 * not: an unregistered name is probed in the immutable g_names and served
 * from environ, an unregistered path is turned away on its last segment
 * (kx_shadow_for), or else probed in g_paths, and gets the real file,
 * and a registered name or path whose slot is current (same coarse second as
 * the last full check, mapped word equal to the word the adopted state was
 * loaded for, slot epoch equal to g_epoch) gets the slot's answer. Only a
 * registered name or path whose slot is not current takes the lock.
 *
 * Tracing: a traced process writes one record per getenv and per registered
 * open, and one per reload, each with a single write() to the O_APPEND trace
 * fd, so the counts survive _exit, exec and a fatal signal.
 *
 * Staleness: writers store the published state's generation as 8 bytes in
 * native byte order at offset 0 of <state>.lock, after the rename. The shim
 * maps that word read-only and reads the state file only when the word
 * changed, or at the full check once per coarse-clock second, which also
 * looks at the lock file again; so hand edits and a recreated lock file show
 * within a second. A lock file that is missing, shorter than 8 bytes, a
 * symlink, not a regular file, hard-linked, not owned by the effective uid
 * or group/world-writable is never mapped (another user must not be able to
 * truncate it, SIGBUS); the shim then watches a constant zero word that never
 * moves, so a state written meanwhile shows at the next full check like a
 * hand edit. The state file stays the source of truth, and is read only when
 * it passes the same rules, size aside: a missing one keeps the adopted
 * state, and one that fails a rule is refused, so no other user picks the
 * layers and a FIFO cannot block the read. A mapping is never unmapped,
 * because a lock-free reader may still be loading it: when the lock file is
 * replaced (a new inode) the old mapping is retired, at a cost of one page,
 * and a lock file that turns unusable and usable again gets its old mapping
 * back.
 *
 * Shadow files: a registered read-only open gets the keys below its
 * template rendered into a file named by its content, <len>-<hash>.conf
 * (kx_hash64 in hex), in the per-user store ${TMPDIR:-/tmp}/kontext-shadow-
 * <euid>. The shim makes the store with mode 0700 and uses it only while
 * lstat shows a directory of the euid with no group or other bits; else the
 * open gets the real file. Equal content gets the same name, so every
 * process of the user serves the same file, no process owns one and none
 * removes one: the store holds one file per distinct rendered content, and
 * an exit by _exit, exec or a fatal signal leaves nothing of its own. The
 * path of the file is the answer of the registered path's slot, so a process
 * renders again only after a new state was adopted.
 *
 * Answers: every getenv/ key of the spec, and every open/ key with a
 * template, owns a slot holding its answer for the state adopted last
 * (g_epoch grows with every adopted state): the name's value, or the path of
 * the path's shadow file. So a steady registered hit makes no lookup and
 * renders nothing. Every outcome is kept until the next adopted state: a
 * lookup error, a failed render or a refused store leaves "no answer" in the
 * slot, so the name or path falls through to environ or the real file, and a
 * traced process writes one note saying why. Answers are interned in the
 * slot, so A->B->A flips return the first pointer again. Two hashed tables
 * (FNV-1a, open addressing) find a slot: g_names a bare getenv name's, keyed
 * by the name, and g_paths a registered path's, keyed by its last segment.
 * An open looks for the path as the program passed it first, and
 * canonicalizes a copy only when no registered path equals it
 * (kx_shadow_lookup), so a hit on a canonical path makes no copy and hashes
 * the last segment once. A registered path that is not its own canonical
 * form matches no open and stays out of g_paths.
 *
 * Config environment variables:
 *   KONTEXT_SPEC        spec file path; unset or unparseable -> passthrough
 *   KONTEXT_STATE       state file path; default ${XDG_RUNTIME_DIR:-/tmp}/kontext/state.ks
 *   KONTEXT_TRACE       trace file path (append); unset -> no tracing
 *   TMPDIR              where the shadow store is; unset or empty -> /tmp
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
/* the getenv and open entries and what their unregistered paths call: GCC
 * puts these in .text.hot, which the linker places ahead of all of core.c's
 * ordinary code, so an edit to the parser or the lookup does not move them.
 * Only what comes before .text.hot still can: a new PLT entry (a libc
 * function no file called before) or code GCC files as unlikely. */
#define KX_HOT __attribute__((hot))

extern char **environ;

/* ------------------------------------------------------------------ */
/* globals                                                             */
/* ------------------------------------------------------------------ */

/* All written only under g_lock. Read without it, after an acquire load of
 * g_ready: g_active, g_trace_fd, g_spec, g_names, g_paths, g_tails,
 * g_slots_len, g_getenv_len and each slot's key and name, which never change
 * once ready, and, with atomic loads, g_checked_s, g_word, *g_word,
 * g_word_seen, g_epoch and each slot's epoch and answer. Writers publish in
 * this order: a reload adopts the state and bumps g_epoch, then stores
 * g_word_seen (release); a slot fill stores answer, then epoch (both
 * release); a full check stores g_checked_s (release) after its reload.
 * Everything else is read only under g_lock. */

static pthread_mutex_t g_lock = PTHREAD_MUTEX_INITIALIZER;
/* reentrancy guard; initial-exec, so a check is one thread-pointer-relative
 * load and not a __tls_get_addr call */
static __thread int t_inside __attribute__((tls_model("initial-exec"))) = 0;

static int g_ready = 0; /* init finished; stored once with release */
static int g_active = 0;
static long long g_t0_ns = 0; /* set by constructor, lock-free single write */

static kx_keyset g_spec;
static kx_state g_state;
static char g_state_path[PATH_MAX];
static int g_trace_fd = -1;

/* generation word: offset 0 of <state>.lock, mapped read-only */
static char g_lock_path[PATH_MAX + 8];
static const unsigned long long g_still_word = 0;   /* watched while no lock file is usable */
static const unsigned long long *g_word = &g_still_word; /* never NULL */
static const unsigned long long *g_word_map = NULL; /* last mapping made, never unmapped */
static unsigned long long g_word_dev, g_word_ino;   /* the file g_word_map maps */
static unsigned long long g_word_seen;              /* word the adopted state was loaded for */
static long long g_checked_s = -1; /* coarse second of the last full check */

/* answer slots: one per key of the spec's contiguous getenv/ range, then one
 * per open/ key with a template, in key order */
typedef struct kx_interned {
    struct kx_interned *next;
    char value[];
} kx_interned;

typedef struct {
    const char *key;          /* "getenv/NAME", or the path's template prefix */
    const char *name;         /* NAME, or the path: what g_names or g_paths finds */
    unsigned long long epoch; /* g_epoch the answer belongs to; 0 is never current */
    const char *answer;       /* interned value or shadow path, NULL when absent */
    kx_interned *values;      /* every answer this slot gave, kept forever */
} kx_slot;

static kx_slot *g_slots = NULL;
static size_t g_slots_len = 0;
static size_t g_getenv_len = 0;        /* slots [0, g_getenv_len) are getenv names */
static unsigned long long g_epoch = 1; /* grows with every adopted state */

/* a hashed table of slot indexes: slot index + 1 per bucket, 0 for empty;
 * a power of two more than twice the entries, so probes end */
typedef struct {
    size_t *buckets;
    size_t mask;
} kx_table;

/* the getenv slots, keyed by the kx_name_hash of their name */
static kx_table g_names;
/* the path slots whose name is canonical, keyed by the kx_name_hash of
 * their last segment, which kx_shadow_for computes anyway. Paths that share
 * a last segment share a chain, but no getenv name ever walks it. */
static kx_table g_paths;

/* the last segments of the path slots' names, one bit per kx_name_hash: a
 * path whose bit is clear is no registered path, and a set bit only means
 * that it may be (a Bloom filter with one hash; Bloom, CACM 1970). At least
 * 8 bits per path and a power of two. */
static unsigned char *g_tails = NULL;
static size_t g_tails_mask = 0;

/* ------------------------------------------------------------------ */
/* tiny helpers                                                        */
/* ------------------------------------------------------------------ */

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

/* the value of the first entry of environ that is name followed by '=', as
 * libc's getenv answers; the shim's own variables are read here too, so
 * nothing recurses through interposers. The first two bytes filter each
 * entry (a one-byte name matches "X="); the rest is compared inline, byte by
 * byte, with no strlen or library call per entry. The compare stops at the
 * first byte that differs, and an entry's NUL always differs from the name's
 * next byte, so no entry is read past its end. A '=' in the name is compared
 * like any other byte. */
static KX_HOT char *kx_env_scan(const char *name) {
    if (!name || !*name || !environ)
        return NULL;
    char c0 = name[0], c1 = name[1] ? name[1] : '=';
    for (char **e = environ; *e; e++) {
        const char *v = *e;
        if (v[0] != c0 || v[1] != c1)
            continue;
        if (!name[1])
            return (char *)v + 2;
        const char *p = name + 2;
        for (v += 2; *p && *v == *p; v++, p++)
            ;
        if (!*p && *v == '=')
            return (char *)v + 1;
    }
    return NULL;
}

/* ------------------------------------------------------------------ */
/* real libc entry points                                              */
/* ------------------------------------------------------------------ */

typedef int kx_open_fn(const char *, int, ...);
typedef int kx_open2_fn(const char *, int);
typedef FILE *kx_fopen_fn(const char *, const char *);

/* each real function's dlsym(RTLD_NEXT) result, stored at its first use */
static void *g_next_open, *g_next_open64, *g_next_open_2, *g_next_open64_2;
static void *g_next_fopen, *g_next_fopen64;

/* the next definition of name after this library, or of fallback where
 * there is none (open64 -> open), stored in *cache; NULL with errno ENOSYS
 * when neither resolves. Every thread finds the same pointer, so a relaxed
 * store is enough and a race costs one more dlsym. */
static __attribute__((noinline, cold)) void *kx_resolve(void **cache, const char *name,
                                                          const char *fallback) {
    int saved = errno;
    void *fn = dlsym(RTLD_NEXT, name);
    if (!fn && fallback)
        fn = dlsym(RTLD_NEXT, fallback);
    errno = fn ? saved : ENOSYS;
    __atomic_store_n(cache, fn, __ATOMIC_RELAXED);
    return fn;
}

/* the real function of type T that cache holds, resolved at the first use */
#define KX_NEXT(T, cache, name, fallback) \
    ((T *)(__atomic_load_n(&(cache), __ATOMIC_RELAXED) ?: kx_resolve(&(cache), name, fallback)))

/* libc's open, for the shim's own files */
static int kx_real_open(const char *path, int flags, mode_t mode) {
    kx_open_fn *real = KX_NEXT(kx_open_fn, g_next_open, "open", NULL);
    return real ? real(path, flags, mode) : -1;
}

/* ------------------------------------------------------------------ */
/* trace records                                                       */
/* ------------------------------------------------------------------ */

/* escape tab, newline, cr, backslash into out (bounded, truncating);
 * returns the length written before the NUL */
static size_t kx_escape(const char *in, char *out, size_t cap) {
    size_t w = 0;
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
    return w;
}

/* write one record: the time, kind (a short literal) and the fields up to
 * the first NULL, each escaped into at most 511 bytes. A record is one
 * write() on an O_APPEND fd, so records of concurrent threads and processes
 * never interleave and no lock is needed. */
static void kx_trace(const char *kind, const char *f3, const char *f4, const char *f5) {
    if (g_trace_fd < 0)
        return;
    int saved = errno;
    const char *fields[] = {f3, f4, f5};
    char line[64 + 3 * 513];
    size_t w = (size_t)snprintf(line, 64, "%lld\t%s", kx_now_ns(), kind);
    if (w > 63)
        w = 63; /* truncated */
    for (int i = 0; i < 3 && fields[i]; i++) {
        line[w++] = '\t';
        w += kx_escape(fields[i], line + w, 512);
    }
    line[w++] = '\n';
    ssize_t ignored = write(g_trace_fd, line, w);
    (void)ignored;
    errno = saved;
}

/* ------------------------------------------------------------------ */
/* state loading                                                       */
/* ------------------------------------------------------------------ */

/* the rest of fd, whose fstat the caller has in st; a regular file is read
 * with one read() into a buffer of its size */
static int kx_read_fd(int fd, const struct stat *st, char **data_out, size_t *len_out) {
    int regular = S_ISREG(st->st_mode);
    size_t cap = regular ? (size_t)st->st_size + 1 : 8192, len = 0;
    char *data = (char *)malloc(cap);
    if (!data)
        return -1;
    for (;;) {
        if (len == cap) {
            cap *= 2;
            char *grown = (char *)realloc(data, cap);
            if (!grown) {
                free(data);
                return -1;
            }
            data = grown;
        }
        ssize_t got = read(fd, data + len, cap - len);
        if (got < 0) {
            if (errno == EINTR)
                continue;
            free(data);
            return -1;
        }
        if (got == 0)
            break;
        len += (size_t)got;
        if (regular && len < cap)
            break; /* a short read of a regular file ends at its end */
    }
    *data_out = data;
    *len_out = len;
    return 0;
}

/* data as the whole of path: a temp file in the same directory renamed
 * over it, so readers see the old file or the new one, never a part; 0 on
 * success */
static int kx_write_file(const char *path, const char *data, size_t len) {
    char tmp[PATH_MAX + 16];
    if (snprintf(tmp, sizeof tmp, "%s.XXXXXX", path) >= (int)sizeof tmp)
        return -1;
    int fd = mkostemp(tmp, O_CLOEXEC);
    if (fd < 0)
        return -1;
    size_t done = 0;
    while (done < len) {
        ssize_t put = write(fd, data + done, len - done);
        if (put < 0 && errno == EINTR)
            continue;
        if (put < 0)
            break;
        done += (size_t)put;
    }
    int ok = close(fd) == 0 && done == len;
    if (ok && rename(tmp, path) == 0)
        return 0;
    unlink(tmp);
    return -1;
}

static long long kx_coarse_s(void) {
    struct timespec ts;
    if (clock_gettime(CLOCK_MONOTONIC_COARSE, &ts) != 0)
        return 0;
    return (long long)ts.tv_sec;
}

/* the rule that keeps a file from being mapped or read, or NULL: only a
 * file no other user can truncate under the mapping (SIGBUS) or rewrite,
 * not a second name of some unrelated file of ours (a hard link), and
 * holding at least min bytes. A file renamed over after the open has no
 * name left, and is still whole. Callers open with O_NOFOLLOW or lstat, so
 * symlinks are never followed. */
static const char *kx_untrusted(const struct stat *st, off_t min) {
    if (!S_ISREG(st->st_mode))
        return "type";
    if (st->st_uid != geteuid())
        return "owner";
    if (st->st_nlink > 1)
        return "links";
    if (st->st_mode & (S_IWGRP | S_IWOTH))
        return "mode";
    if (st->st_size < min)
        return "size";
    return NULL;
}

/* path opened for reading when the file passes kx_untrusted with at least
 * min bytes, and *st its stat; else -1 and *why: "missing", "symlink",
 * "unreadable" or the rule the file breaks. O_NONBLOCK: opening a FIFO must
 * not wait for a writer, and kx_untrusted refuses it. */
static int kx_open_trusted(const char *path, off_t min, struct stat *st, const char **why) {
    int fd = kx_real_open(path, O_RDONLY | O_CLOEXEC | O_NOFOLLOW | O_NONBLOCK, 0);
    if (fd < 0) {
        *why = errno == ENOENT ? "missing" : errno == ELOOP ? "symlink" : "unreadable";
        return -1;
    }
    *why = fstat(fd, st) != 0 ? "unreadable" : kx_untrusted(st, min);
    if (*why) {
        close(fd);
        return -1;
    }
    return fd;
}

/* all of path mapped read-only when kx_open_trusted opens it; else NULL and
 * *why as there */
static const void *kx_map_trusted(const char *path, off_t min, struct stat *st,
                                  const char **why) {
    int fd = kx_open_trusted(path, min, st, why);
    if (fd < 0)
        return NULL;
    void *map = mmap(NULL, (size_t)st->st_size, PROT_READ, MAP_SHARED, fd, 0);
    close(fd);
    if (map == MAP_FAILED) {
        *why = "unreadable";
        return NULL;
    }
    return map;
}

/* read the state file and adopt it if its generation is larger, or any
 * generation when initial; lock held. A missing file keeps what we have,
 * silently; a refused, unreadable or corrupt one keeps it with a note. */
static void kx_load_state(int initial) {
    struct stat st;
    const char *why;
    int fd = kx_open_trusted(g_state_path, 0, &st, &why);
    if (fd < 0) {
        if (strcmp(why, "missing") != 0)
            kx_trace("note", "state-refused", why, NULL);
        return;
    }
    char *data = NULL;
    size_t len = 0;
    int rc = kx_read_fd(fd, &st, &data, &len);
    close(fd);
    if (rc != 0) {
        kx_trace("note", "state-read-failed", g_state_path, NULL);
        return;
    }
    kx_state fresh;
    kx_error err;
    rc = kx_parse_state(data, len, &fresh, &err);
    free(data);
    if (rc != KX_OK) {
        kx_trace("note", "state-corrupt", err.message, NULL);
        return;
    }
    if (initial || fresh.generation > g_state.generation) {
        kx_state_free(&g_state);
        g_state = fresh;
        __atomic_store_n(&g_epoch, g_epoch + 1, __ATOMIC_RELAXED); /* published by g_word_seen */
        if (!initial && g_trace_fd >= 0) {
            char generation[24];
            snprintf(generation, sizeof generation, "%lld", g_state.generation);
            kx_trace("reload", generation, NULL, NULL);
        }
    } else {
        kx_state_free(&fresh);
    }
}

/* map the generation word if the lock file is usable; lock held */
static void kx_word_map(void) {
    struct stat st;
    const char *why;
    const void *map = kx_map_trusted(g_lock_path, sizeof *g_word, &st, &why);
    if (!map)
        return;
    g_word_map = (const unsigned long long *)map;
    g_word_dev = (unsigned long long)st.st_dev;
    g_word_ino = (unsigned long long)st.st_ino;
    __atomic_store_n(&g_word, g_word_map, __ATOMIC_RELEASE);
}

/* publish the last mapping while the lock file is the usable file it maps,
 * else map whatever usable file is there now, else publish the still word.
 * Never munmap: a lock-free reader may still be loading the old word. Lock
 * held. */
static void kx_word_revalidate(void) {
    struct stat st;
    int usable = lstat(g_lock_path, &st) == 0 && !kx_untrusted(&st, sizeof *g_word);
    if (usable && g_word_map && (unsigned long long)st.st_dev == g_word_dev &&
        (unsigned long long)st.st_ino == g_word_ino) {
        __atomic_store_n(&g_word, g_word_map, __ATOMIC_RELEASE);
        return;
    }
    __atomic_store_n(&g_word, &g_still_word, __ATOMIC_RELEASE);
    if (usable)
        kx_word_map();
}

/* reload the state when the word moved, and at the full check once a second,
 * which looks at the lock file again first */
static void kx_refresh_if_stale(void) {
    if (!g_active)
        return;
    long long now = kx_coarse_s();
    int due = now != g_checked_s;
    if (due)
        kx_word_revalidate();
    /* read before the reload, so a publish made during it moves it again */
    unsigned long long word = __atomic_load_n(g_word, __ATOMIC_ACQUIRE);
    if (word == g_word_seen && !due)
        return;
    kx_load_state(0);
    /* only after the reload: a lock-free reader that matches the word must
     * find the state it names adopted, and g_epoch moved with it */
    __atomic_store_n(&g_word_seen, word, __ATOMIC_RELEASE);
    if (due)
        __atomic_store_n(&g_checked_s, now, __ATOMIC_RELEASE);
}

/* ------------------------------------------------------------------ */
/* registered names and paths                                          */
/* ------------------------------------------------------------------ */

static size_t kx_name_hash(const char *name) {
    unsigned long long h = 14695981039346656037ULL; /* FNV-1a, 64 bit */
    for (const unsigned char *p = (const unsigned char *)name; *p; p++)
        h = (h ^ *p) * 1099511628211ULL;
    return (size_t)h;
}

/* the last segment of a path: what follows its last slash */
static const char *kx_tail(const char *path) {
    const char *slash = strrchr(path, '/');
    return slash ? slash + 1 : path;
}

/* textual canonicalization into canon (2 * PATH_MAX bytes): cwd join plus
 * . / .. / duplicate-slash collapse, in place, since a write never passes
 * the read position; symlinks are not resolved (registered paths must match
 * the spelling programs use after normalization). A path whose last segment
 * is ordinary (not empty, . or ..) keeps it as the canonical path's last
 * segment, which is what lets kx_shadow_for turn a path away, and find its
 * chain in g_paths, before calling this; canon is then never empty.
 * 0 on success. */
static int kx_canonical_path(const char *path, char *canon) {
    size_t w = 0, len = strlen(path);
    if (path[0] != '/') {
        int saved = errno;
        const char *cwd = getcwd(canon, PATH_MAX);
        errno = saved;
        if (!cwd)
            return -1;
        w = strlen(canon);
        canon[w++] = '/';
    }
    if (w + len >= 2 * PATH_MAX)
        return -1;
    memcpy(canon + w, path, len + 1);

    w = 0;
    const char *p = canon;
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
            while (w > 0 && canon[w - 1] != '/')
                w--;
            if (w > 0)
                w--; /* drop the slash too */
            continue;
        }
        canon[w++] = '/';
        memmove(canon + w, seg, seg_len);
        w += seg_len;
    }
    canon[w] = '\0';
    return 0;
}

/* whether a registered path is its own canonical form. One that is not (a .
 * or .. segment, or too long for canon) equals no path kx_canonical_path
 * makes, so no open is ever served it. */
static int kx_path_is_canonical(const char *path) {
    char canon[2 * PATH_MAX];
    return kx_canonical_path(path, canon) == 0 && strcmp(canon, path) == 0;
}

/* an empty table for n entries; 0 on success */
static int kx_table_alloc(kx_table *table, size_t n) {
    size_t size = 1;
    while (size <= 2 * n)
        size *= 2;
    table->buckets = (size_t *)calloc(size, sizeof *table->buckets);
    table->mask = size - 1;
    return table->buckets ? 0 : -1;
}

static void kx_table_put(kx_table *table, size_t hash, size_t i) {
    size_t b = hash & table->mask;
    while (table->buckets[b])
        b = (b + 1) & table->mask;
    table->buckets[b] = i + 1;
}

/* g_names, g_paths and g_tails. Only path slots whose name is canonical go
 * in, so a path equal to a name in g_paths is canonical itself. */
static int kx_names_build(void) {
    size_t bits = 64;
    while (bits < 8 * (g_slots_len - g_getenv_len))
        bits *= 2;
    g_tails = (unsigned char *)calloc(bits / 8, 1);
    if (!g_tails || kx_table_alloc(&g_names, g_getenv_len) != 0 ||
        kx_table_alloc(&g_paths, g_slots_len - g_getenv_len) != 0)
        return -1;
    g_tails_mask = bits - 1;
    for (size_t i = 0; i < g_getenv_len; i++)
        kx_table_put(&g_names, kx_name_hash(g_slots[i].name), i);
    for (size_t i = g_getenv_len; i < g_slots_len; i++) {
        const char *name = g_slots[i].name;
        if (!kx_path_is_canonical(name))
            continue;
        size_t hash = kx_name_hash(kx_tail(name)), bit = hash & g_tails_mask;
        kx_table_put(&g_paths, hash, i);
        g_tails[bit / 8] |= (unsigned char)(1u << bit % 8);
    }
    return 0;
}

/* the slot whose name is name, in table's chain of hash; immutable data
 * only, so no lock. Inlined into getenv and the path lookup alike, so that
 * getenv's hit makes no call. */
static inline __attribute__((always_inline)) int kx_table_slot(const kx_table *table,
                                                               const char *name, size_t hash,
                                                               size_t *slot) {
    for (size_t b = hash & table->mask; table->buckets[b]; b = (b + 1) & table->mask) {
        size_t i = table->buckets[b] - 1;
        if (strcmp(g_slots[i].name, name) == 0) {
            *slot = i;
            return 1;
        }
    }
    return 0;
}

/* ------------------------------------------------------------------ */
/* spec image                                                          */
/* ------------------------------------------------------------------ */

/* init stages, timed for the traced process's init record */
enum { KX_ST_READ, KX_ST_HASH, KX_ST_LOAD, KX_ST_WRITE, KX_ST_STATE, KX_ST_SLOTS, KX_NSTAGES };
static const char *const kx_stage_names[KX_NSTAGES] = {"read", "hash", "load",
                                                       "write", "state", "slots"};
static long long g_stage_ns[KX_NSTAGES];
static char g_image_outcome[48] = "-";

/* charge the time since *mark to stage and move *mark to now */
static void kx_stage(int stage, long long *mark) {
    long long now = kx_now_ns();
    g_stage_ns[stage] += now - *mark;
    *mark = now;
}

/* length and kx_hash64 of the rest of fd, read through one small buffer
 * instead of a copy of the whole file; lock held */
static int kx_hash_fd(int fd, uint64_t *len, uint64_t *hash, long long *mark) {
    static char buf[32768];
    kx_hasher h;
    kx_hash_init(&h);
    for (;;) {
        ssize_t got = read(fd, buf, sizeof buf);
        if (got < 0 && errno == EINTR)
            continue;
        kx_stage(KX_ST_READ, mark);
        if (got < 0)
            return -1;
        if (got == 0)
            break;
        kx_hash_update(&h, buf, (size_t)got);
        kx_stage(KX_ST_HASH, mark);
    }
    *len = h.len;
    *hash = kx_hash_final(&h);
    return 0;
}

/* write the image of g_spec, parsed from text, at path */
static int kx_image_write(const char *path, const char *text, size_t len) {
    size_t size;
    const char *data = (const char *)kx_keyset_image(&g_spec, text, len, &size);
    return kx_write_file(path, data, size);
}

/* g_spec from <spec>.kxi when that image is valid for the spec's bytes as
 * read now, else parsed from the text and, when this process may, written
 * as the image for the next one. Sets g_image_outcome. Returns 0, or -1
 * with failure filled in. Lock held. */
static int kx_spec_load(const char *spec_path, char *failure, size_t cap) {
    long long mark = kx_now_ns();
    struct stat st;
    int fd = kx_real_open(spec_path, O_RDONLY | O_CLOEXEC, 0);
    if (fd < 0 || fstat(fd, &st) != 0) {
        snprintf(failure, cap, "spec unreadable (errno %d)", errno);
        if (fd >= 0)
            close(fd);
        return -1;
    }
    /* only a regular file can be read twice, and has a stable name */
    char image_path[PATH_MAX];
    int imaged = S_ISREG(st.st_mode) &&
                 snprintf(image_path, sizeof image_path, "%s.kxi", spec_path) <
                     (int)sizeof image_path;
    const char *why = "missing";
    struct stat image_st;
    const void *image = imaged ? kx_map_trusted(image_path, 1, &image_st, &why) : NULL;
    kx_stage(KX_ST_LOAD, &mark);
    if (image) {
        size_t size = (size_t)image_st.st_size;
        uint64_t len, hash;
        int rc = KX_E_IMAGE;
        why = "unreadable";
        if (kx_hash_fd(fd, &len, &hash, &mark) == 0)
            rc = kx_keyset_from_image(image, size, len, hash, &g_spec, &why);
        kx_stage(KX_ST_HASH, &mark);
        if (rc == KX_OK) {
            close(fd);
            snprintf(g_image_outcome, sizeof g_image_outcome, "mapped");
            return 0;
        }
        munmap((void *)image, size);
        if (lseek(fd, 0, SEEK_SET) != 0) {
            snprintf(failure, cap, "spec unreadable (errno %d)", errno);
            close(fd);
            return -1;
        }
    }

    char *data = NULL;
    size_t len = 0;
    int rc = kx_read_fd(fd, &st, &data, &len);
    close(fd);
    kx_stage(KX_ST_READ, &mark);
    if (rc != 0) {
        snprintf(failure, cap, "spec unreadable (errno %d)", errno);
        return -1;
    }
    kx_error err;
    rc = kx_parse_spec(data, len, &g_spec, &err);
    kx_stage(KX_ST_LOAD, &mark);
    if (rc != KX_OK) {
        free(data);
        snprintf(failure, cap, "spec parse failed: line %d: %s", err.line, err.message);
        return -1;
    }
    /* an image only of a spec this user owns, and never by a setuid program */
    int wrote = imaged && st.st_uid == geteuid() && !getauxval(AT_SECURE) &&
                kx_image_write(image_path, data, len) == 0;
    kx_stage(KX_ST_WRITE, &mark);
    free(data);
    char found[40] = ""; /* the image there was: none, "stale" or "refused:RULE" */
    if (strcmp(why, "missing") != 0)
        snprintf(found, sizeof found, "%s%s", strcmp(why, "stale") == 0 ? "" : "refused:", why);
    if (wrote)
        snprintf(g_image_outcome, sizeof g_image_outcome, "written%s%s", found[0] ? ":" : "",
                 found);
    else
        snprintf(g_image_outcome, sizeof g_image_outcome, "%s", found[0] ? found : "unwritable");
    return 0;
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

/* the child's copy of g_lock may be held by a thread the child does not
 * have; the shadow files it inherits belong to no process, so it keeps
 * serving them */
static void kx_fork_child(void) {
    pthread_mutex_init(&g_lock, NULL);
}

__attribute__((constructor)) static void kx_on_load(void) {
    /* only sample the clock and register the fork handlers; real setup
     * stays lazy */
    if (!g_t0_ns)
        g_t0_ns = kx_now_ns();
    pthread_atfork(kx_fork_prepare, kx_fork_parent, kx_fork_child);
}

/* a slot per getenv/ key of g_spec, then per open/ key with a template, and
 * their name tables */
static int kx_slots_build(char *failure, size_t cap) {
    size_t start, end, open_start, open_end;
    if (kx_keyset_below(&g_spec, "getenv", &start, &end) != KX_OK ||
        kx_keyset_below(&g_spec, "open", &open_start, &open_end) != KX_OK ||
        !(g_slots = (kx_slot *)calloc(end - start + open_end - open_start + 1, sizeof *g_slots))) {
        snprintf(failure, cap, "answer slots: out of memory");
        return -1;
    }
    for (size_t i = start; i < end; i++, g_slots_len++) {
        g_slots[g_slots_len].key = kx_key_name(kx_keyset_at(&g_spec, i));
        g_slots[g_slots_len].name = g_slots[g_slots_len].key + 7; /* after "getenv/" */
    }
    g_getenv_len = g_slots_len;
    for (size_t i = open_start; i < open_end; i++) {
        const kx_key *key = kx_keyset_at(&g_spec, i);
        const char *prefix = kx_key_meta(key, "template");
        if (prefix && *prefix) {
            g_slots[g_slots_len].key = prefix;
            g_slots[g_slots_len++].name = kx_key_name(key) + 4; /* the path after "open" */
        }
    }
    if (kx_names_build() != 0) {
        snprintf(failure, cap, "name table: out of memory");
        return -1;
    }
    return 0;
}

/* the init record: the image outcome, the us each stage took and the us
 * from the first call to ready, trace records aside */
static void kx_trace_init(long long total_ns) {
    char stages[200];
    size_t w = 0;
    for (int i = 0; i < KX_NSTAGES; i++)
        w += (size_t)snprintf(stages + w, sizeof stages - w, "%s=%.1f;", kx_stage_names[i],
                              g_stage_ns[i] / 1e3);
    snprintf(stages + w, sizeof stages - w, "total=%.1f", total_ns / 1e3);
    kx_trace("init", g_image_outcome, stages, NULL);
}

/* runs once, under g_lock, from kx_init_once */
static void kx_ensure_init(void) {
    long long start_ns = kx_now_ns();
    if (!g_t0_ns)
        g_t0_ns = start_ns;
    kx_keyset_init(&g_spec);
    kx_state_init(&g_state);

    const char *spec_path = kx_env_scan("KONTEXT_SPEC");
    const char *trace_path = kx_env_scan("KONTEXT_TRACE");
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
    long long mark;
    if (spec_path && *spec_path && kx_spec_load(spec_path, failure, sizeof failure) == 0) {
        mark = kx_now_ns();
        g_active = kx_slots_build(failure, sizeof failure) == 0;
        kx_stage(KX_ST_SLOTS, &mark);
    }

    if (g_active) {
        mark = kx_now_ns();
        snprintf(g_lock_path, sizeof g_lock_path, "%s.lock", g_state_path);
        g_checked_s = kx_coarse_s();
        kx_word_map();
        /* read before the load, as in kx_refresh_if_stale */
        g_word_seen = __atomic_load_n(g_word, __ATOMIC_ACQUIRE);
        kx_load_state(1);
        kx_stage(KX_ST_STATE, &mark);
    }
    long long total_ns = kx_now_ns() - start_ns;

    if (g_trace_fd >= 0) {
        char t0column[32];
        snprintf(t0column, sizeof t0column, "%lld", g_t0_ns);
        /* start record carries the constructor timestamp in its value field
         * so analysis has the true process t0, not the first-call time */
        char startrec[64];
        snprintf(startrec, sizeof startrec, "%s", g_active ? "active" : "passthrough");
        kx_trace("start", startrec, "-", t0column);
        kx_trace_init(total_ns);
    }
    if (failure[0] && g_trace_fd >= 0)
        kx_trace("init-failed", failure, NULL, NULL);
}

/* the first call's half of kx_init_once, out of the hot path */
static __attribute__((noinline, cold)) void kx_init_slow(void) {
    int saved = errno;
    pthread_mutex_lock(&g_lock);
    if (!g_ready) {
        kx_ensure_init();
        __atomic_store_n(&g_ready, 1, __ATOMIC_RELEASE);
    }
    pthread_mutex_unlock(&g_lock);
    errno = saved;
}

/* after this returns, everything kx_ensure_init set up is readable without
 * the lock; once ready, one load and no call */
static inline __attribute__((always_inline)) void kx_init_once(void) {
    if (__builtin_expect(!__atomic_load_n(&g_ready, __ATOMIC_ACQUIRE), 0))
        kx_init_slow();
}

/* ------------------------------------------------------------------ */
/* shadow files                                                        */
/* ------------------------------------------------------------------ */

/* the path of name in the per-user shadow store, ${TMPDIR:-/tmp}/kontext-
 * shadow-<euid>; 0 only when the store is a directory of the euid with no
 * group or other bits, so no other user can list it or swap a file in it */
static int kx_shadow_path(const char *name, char *path, size_t cap) {
    const char *base = kx_env_scan("TMPDIR");
    if (!base || !*base)
        base = "/tmp";
    uid_t euid = geteuid();
    int n = snprintf(path, cap, "%s/kontext-shadow-%u", base, (unsigned)euid);
    if (n < 0 || (size_t)n >= cap)
        return -1;
    mkdir(path, 0700); /* it usually exists already: the lstat decides */
    struct stat st;
    if (lstat(path, &st) != 0 || !S_ISDIR(st.st_mode) || st.st_uid != euid ||
        (st.st_mode & (S_IRWXG | S_IRWXO))) {
        kx_trace("note", "shadow-store-refused", path, NULL);
        return -1;
    }
    return snprintf(path + n, cap - (size_t)n, "/%s", name) < (int)(cap - (size_t)n) ? 0 : -1;
}

/* render the keys below a template prefix under the adopted state into the
 * shadow file of that content, and put its path in path; 0, or -1 to fail
 * open. Lock held. */
static int kx_shadow_render(const char *prefix, char *path, size_t cap) {
    size_t start, end;
    if (kx_keyset_below(&g_spec, prefix, &start, &end) != KX_OK || start == end)
        return -1; /* nothing below the prefix: nothing to serve */

    size_t prefix_len = strlen(prefix);
    char *content = NULL;
    size_t content_len = 0, content_cap = 0;
    for (size_t i = start; i < end; i++) {
        const char *name = kx_key_name(kx_keyset_at(&g_spec, i));
        kx_result res;
        kx_error err;
        int rc = kx_lookup(&g_spec, name, &g_state, &res, &err);
        if (rc == KX_OK) {
            const char *rel = name + prefix_len + 1;
            size_t need = strlen(rel) + 1 + strlen(res.value) + 1;
            if (content_len + need + 1 > content_cap) {
                size_t grown_cap = content_cap ? content_cap : 256;
                while (grown_cap < content_len + need + 1)
                    grown_cap *= 2;
                char *grown = (char *)realloc(content, grown_cap);
                if (!grown) {
                    free(content);
                    kx_result_free(&res);
                    return -1;
                }
                content = grown;
                content_cap = grown_cap;
            }
            content_len += (size_t)snprintf(content + content_len, content_cap - content_len,
                                            "%s=%s\n", rel, res.value);
            kx_result_free(&res);
        } else if (rc == KX_ABSENT) {
            kx_result_free(&res);
        } else {
            kx_result_free(&res);
            kx_trace("note", "shadow-render-error", name, err.message);
            free(content);
            return -1;
        }
    }

    /* named by its content: a file of that name holds these bytes, whoever
     * wrote it, so any process of the user may serve it */
    const char *bytes = content ? content : "";
    char name[48];
    snprintf(name, sizeof name, "%zu-%016llx.conf", content_len,
             (unsigned long long)kx_hash64(bytes, content_len));
    int ok = kx_shadow_path(name, path, cap) == 0 && kx_write_file(path, bytes, content_len) == 0;
    free(content);
    return ok ? 0 : -1;
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

/* the answer of slot i, computed again only after a new state was adopted:
 * a getenv slot's value, or the path of a path slot's shadow file; NULL
 * falls through to environ or the real file. Every outcome is kept until
 * the next adopted state, a failure too, so it costs one note and not one
 * per call. Lock held. */
static const char *kx_slot_fill(size_t i) {
    kx_refresh_if_stale();
    kx_slot *slot = &g_slots[i];
    if (slot->epoch == g_epoch)
        return slot->answer;
    const char *answer = NULL;
    if (i < g_getenv_len) {
        kx_result res;
        kx_error err = {0};
        int rc = kx_lookup(&g_spec, slot->key, &g_state, &res, &err);
        if (rc == KX_OK)
            answer = kx_intern(slot, res.value);
        else if (rc != KX_ABSENT)
            kx_trace("note", "lookup-error", slot->key, err.message);
        kx_result_free(&res);
    } else {
        char path[PATH_MAX];
        if (kx_shadow_render(slot->key, path, sizeof path) == 0)
            answer = kx_intern(slot, path);
    }
    /* a lock-free reader that sees the epoch sees this answer */
    __atomic_store_n(&slot->answer, answer, __ATOMIC_RELEASE);
    __atomic_store_n(&slot->epoch, g_epoch, __ATOMIC_RELEASE);
    return answer;
}

/* kx_slot_fill under g_lock, for a slot that is not current */
static const char *kx_slot_locked(size_t i) {
    int saved = errno;
    pthread_mutex_lock(&g_lock);
    const char *answer = kx_slot_fill(i);
    pthread_mutex_unlock(&g_lock);
    errno = saved;
    return answer;
}

/* the answer of slot i if it is current, without the lock: the check of
 * this second is done, the mapped word is the one the adopted state was
 * loaded for, and the slot was filled under the adopted state. Answers are
 * interned and never freed, so a pointer read here stays valid even when a
 * writer refills the slot meanwhile. */
static inline __attribute__((always_inline)) int kx_slot_current(size_t i, const char **answer) {
    if (kx_coarse_s() != __atomic_load_n(&g_checked_s, __ATOMIC_ACQUIRE))
        return 0;
    const unsigned long long *word = __atomic_load_n(&g_word, __ATOMIC_ACQUIRE);
    if (__atomic_load_n(word, __ATOMIC_ACQUIRE) != __atomic_load_n(&g_word_seen, __ATOMIC_ACQUIRE))
        return 0;
    kx_slot *slot = &g_slots[i];
    if (__atomic_load_n(&slot->epoch, __ATOMIC_ACQUIRE) != __atomic_load_n(&g_epoch, __ATOMIC_RELAXED))
        return 0;
    *answer = __atomic_load_n(&slot->answer, __ATOMIC_ACQUIRE);
    return 1;
}

/* ------------------------------------------------------------------ */
/* getenv                                                              */
/* ------------------------------------------------------------------ */

/* the lock is taken only for a registered name whose slot is not current;
 * a slot without an answer, a path and any other name are served from
 * environ */
static KX_HOT char *kx_getenv_impl(const char *name) {
    kx_init_once();
    size_t i;
    const char *answer = NULL;
    if (g_active && kx_table_slot(&g_names, name, kx_name_hash(name), &i) &&
        !kx_slot_current(i, &answer))
        answer = kx_slot_locked(i);
    char *result = answer ? (char *)answer : kx_env_scan(name);
    if (__builtin_expect(g_trace_fd >= 0, 0)) /* keeps the record off the untraced path */
        kx_trace("getenv", name, answer ? "hit" : result ? "fallthrough" : "null",
                 result ? result : "");
    return result;
}

/* getenv starts a cache line, so that the code ahead of it in .text.hot
 * does not decide where its hit path's lines break */
KX_EXPORT KX_HOT __attribute__((aligned(64))) char *getenv(const char *name) {
    if (kx_is_null(name))
        return NULL;
    if (t_inside)
        return kx_env_scan(name);
    t_inside = 1;
    char *result = kx_getenv_impl(name);
    t_inside = 0;
    return result;
}

/* setuid/setgid programs get no answers at all, as from libc. The kernel
 * always passes AT_SECURE, so getauxval never sets errno here. */
KX_EXPORT KX_HOT char *secure_getenv(const char *name) {
    return getauxval(AT_SECURE) ? NULL : getenv(name);
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

/* the slot of path's canonical form, in g_paths' chain of hash, when that
 * form is not path itself, whose walk already missed. A frame of its own for
 * canon, so that neither a turned-away path nor a path found as given pays
 * for it. */
static __attribute__((noinline)) int kx_canonical_slot(const char *path, size_t hash,
                                                       size_t *slot) {
    char canon[2 * PATH_MAX];
    return kx_canonical_path(path, canon) == 0 && strcmp(canon, path) != 0 &&
           kx_table_slot(&g_paths, canon, hash, slot);
}

/* kx_shadow_for past the last-segment filter: the slot of the path and its
 * answer. hash is the kx_name_hash of the path's last segment, which keys
 * g_paths. The chain is walked first for the path as given: a name in
 * g_paths is canonical, so a path equal to one is its own canonical form.
 * Only when none equals it is the path canonicalized and the chain walked
 * again; the canonical path keeps the last segment, and so the chain. The
 * trace record names the slot's name: the canonical path either way. */
static KX_HOT __attribute__((noinline)) const char *kx_shadow_lookup(const char *path,
                                                                     size_t hash) {
    size_t i;
    const char *shadow = NULL;
    if (!kx_table_slot(&g_paths, path, hash, &i) && !kx_canonical_slot(path, hash, &i))
        return NULL;
    if (!kx_slot_current(i, &shadow))
        shadow = kx_slot_locked(i);
    kx_trace("open", g_slots[i].name, shadow ? "hit" : "fallthrough", shadow);
    return shadow;
}

/* shared open/fopen front half: the shadow file that substitutes for the
 * path, or NULL for "use the real file". A path is turned away on its last
 * segment, before any copy or getcwd: one whose bit in g_tails is clear is
 * no registered path, and an empty, . or .. last segment names a directory,
 * never a registered file. Only a set bit pays for g_paths, and the
 * segment's hash serves both. Like getenv, the lock is taken only for a
 * registered path whose slot is not current. */
static KX_HOT const char *kx_shadow_for(const char *path) {
    kx_init_once();
    if (!g_active)
        return NULL;
    const char *tail = kx_tail(path);
    if (!tail[0] || (tail[0] == '.' && (!tail[1] || (tail[1] == '.' && !tail[2]))))
        return NULL;
    size_t hash = kx_name_hash(tail), bit = hash & g_tails_mask;
    if (!(g_tails[bit / 8] >> bit % 8 & 1))
        return NULL;
    return kx_shadow_lookup(path, hash);
}

/* glibc's __OPEN_NEEDS_MODE: the flags with which open takes a mode */
static int kx_needs_mode(int flags) {
#ifdef O_TMPFILE
    if ((flags & O_TMPFILE) == O_TMPFILE)
        return 1;
#endif
    return (flags & O_CREAT) != 0;
}

/* open's mode argument, which it has only with the flags kx_needs_mode
 * names; expands in the open entry itself, whose last named parameter is
 * flags */
#define KX_OPEN_MODE(flags)                                                    \
    ({                                                                         \
        mode_t kx_mode = 0;                                                    \
        if (kx_needs_mode(flags)) {                                            \
            va_list ap;                                                        \
            va_start(ap, flags);                                               \
            kx_mode = (mode_t)va_arg(ap, int);                                 \
            va_end(ap);                                                        \
        }                                                                      \
        kx_mode;                                                               \
    })

/* The body of every path entry: the substitution in the header. real is the
 * entry's real function (NULL: return fail, errno is ENOSYS), fail what it
 * returns when it fails, readonly the entry's read-only test, and call the
 * real call, which passes kx_p where the entry passes path. */
#define KX_SUBSTITUTE(path, real, fail, readonly, call)                         \
    do {                                                                       \
        const char *kx_p = (path);                                             \
        if (!(real))                                                           \
            return fail;                                                       \
        if (kx_is_null(kx_p) || t_inside || !(readonly))                       \
            return call;                                                       \
        t_inside = 1;                                                          \
        __typeof__(call) kx_got = fail;                                        \
        if ((kx_p = kx_shadow_for(path))) {                                    \
            int kx_saved = errno;                                              \
            if ((kx_got = call) == (fail))                                     \
                errno = kx_saved;                                              \
        }                                                                      \
        if (kx_got == (fail)) {                                                \
            kx_p = (path);                                                     \
            kx_got = call;                                                     \
        }                                                                      \
        t_inside = 0;                                                          \
        return kx_got;                                                         \
    } while (0)

KX_EXPORT KX_HOT int open(const char *path, int flags, ...) {
    kx_open_fn *real = KX_NEXT(kx_open_fn, g_next_open, "open", NULL);
    mode_t mode = KX_OPEN_MODE(flags);
    KX_SUBSTITUTE(path, real, -1, kx_flags_readonly(flags), real(kx_p, flags, mode));
}

KX_EXPORT KX_HOT int open64(const char *path, int flags, ...) {
    kx_open_fn *real = KX_NEXT(kx_open_fn, g_next_open64, "open64", "open");
    mode_t mode = KX_OPEN_MODE(flags);
    KX_SUBSTITUTE(path, real, -1, kx_flags_readonly(flags), real(kx_p, flags, mode));
}

/* what _FORTIFY_SOURCE builds call for open()/open64() when the compiler
 * cannot see the flags and no mode is passed: libc's own, whose check aborts
 * an O_CREAT or O_TMPFILE open without a mode */
KX_EXPORT KX_HOT int __open_2(const char *path, int flags) {
    kx_open2_fn *real = KX_NEXT(kx_open2_fn, g_next_open_2, "__open_2", NULL);
    KX_SUBSTITUTE(path, real, -1, kx_flags_readonly(flags), real(kx_p, flags));
}

KX_EXPORT KX_HOT int __open64_2(const char *path, int flags) {
    kx_open2_fn *real = KX_NEXT(kx_open2_fn, g_next_open64_2, "__open64_2", NULL);
    KX_SUBSTITUTE(path, real, -1, kx_flags_readonly(flags), real(kx_p, flags));
}

KX_EXPORT KX_HOT FILE *fopen(const char *path, const char *mode) {
    kx_fopen_fn *real = KX_NEXT(kx_fopen_fn, g_next_fopen, "fopen", NULL);
    KX_SUBSTITUTE(path, real, NULL, kx_mode_readonly(mode), real(kx_p, mode));
}

KX_EXPORT KX_HOT FILE *fopen64(const char *path, const char *mode) {
    kx_fopen_fn *real = KX_NEXT(kx_fopen_fn, g_next_fopen64, "fopen64", "fopen");
    KX_SUBSTITUTE(path, real, NULL, kx_mode_readonly(mode), real(kx_p, mode));
}
