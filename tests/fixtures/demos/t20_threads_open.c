/* Reader threads race layer flips over a registered path.
 * Usage: t20_threads_open [fopen] PATH CONTENT... Four threads start
 * together, with no open before them, and loop over open, read and close of
 * PATH, through fopen when the first argument says so; the CONTENTs list
 * every content the file may have, each one line without its newline. Each stdin line "next
 * CONTENT" or "soon CONTENT" starts a round, sent after the state changed:
 * with "next" the first read each thread starts after seeing the round must
 * return CONTENT, with "soon" each thread must read CONTENT within 3 s.
 * After every thread finished the round, main prints "ok" or "fail",
 * flushed. Every read must return one of the argv contents, whole. At EOF
 * main prints "rounds=N failures=F", then "calls=C", the opens all threads
 * made, and exits 1 if F > 0. */
#include <fcntl.h>
#include <pthread.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>
#include <unistd.h>

#define THREADS 4

static const char *g_path;
static int g_fopen;
static pthread_barrier_t g_start;
static int g_ncontents;
static char **g_contents;
static char g_expected[256];
static int g_soon;
static long long g_round_ns;
static unsigned g_round, g_acks, g_stop, g_failures;
static unsigned long g_calls;

static long long now_ns(void) {
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (long long)ts.tv_sec * 1000000000LL + ts.tv_nsec;
}

static void fail(const char *what, long id, const char *got) {
    if (__atomic_add_fetch(&g_failures, 1, __ATOMIC_RELAXED) <= 20)
        fprintf(stderr, "thread %ld: %s (got %s)\n", id, what, got);
}

/* the file's content without its final newline, into buf */
static void read_path(long id, char *buf, size_t cap) {
    buf[0] = '\0';
    size_t len = 0;
    if (g_fopen) {
        FILE *f = fopen(g_path, "r");
        if (!f) {
            fail("fopen failed", id, "NULL");
            return;
        }
        len = fread(buf, 1, cap - 1, f);
        fclose(f);
    } else {
        int fd = open(g_path, O_RDONLY);
        if (fd < 0) {
            fail("open failed", id, "-1");
            return;
        }
        ssize_t n;
        while (len + 1 < cap && (n = read(fd, buf + len, cap - 1 - len)) > 0)
            len += (size_t)n;
        close(fd);
    }
    if (len > 0 && buf[len - 1] == '\n')
        len--;
    buf[len] = '\0';
}

static void *run_reader(void *arg) {
    long id = (long)arg;
    unsigned done = 0;
    unsigned long calls = 0;
    char got[512];
    pthread_barrier_wait(&g_start);
    while (!__atomic_load_n(&g_stop, __ATOMIC_ACQUIRE)) {
        unsigned round = __atomic_load_n(&g_round, __ATOMIC_ACQUIRE);
        read_path(id, got, sizeof got);
        calls++;
        int known = 0;
        for (int i = 0; i < g_ncontents; i++)
            known |= strcmp(got, g_contents[i]) == 0;
        if (!known)
            fail("unknown content", id, got);
        if (round == done)
            continue;
        if (strcmp(got, g_expected) == 0) {
            done = round;
        } else if (!g_soon || now_ns() - g_round_ns > 3000000000LL) {
            fail(g_soon ? "new content not seen in 3 s" : "next read missed the flip", id, got);
            done = round;
        } else {
            continue;
        }
        __atomic_add_fetch(&g_acks, 1, __ATOMIC_RELEASE);
    }
    __atomic_add_fetch(&g_calls, calls, __ATOMIC_RELAXED);
    return NULL;
}

int main(int argc, char **argv) {
    g_fopen = argc > 1 && strcmp(argv[1], "fopen") == 0;
    argc -= g_fopen;
    argv += g_fopen;
    if (argc < 3)
        return 2;
    g_path = argv[1];
    g_ncontents = argc - 2;
    g_contents = argv + 2;
    pthread_barrier_init(&g_start, NULL, THREADS);
    pthread_t threads[THREADS];
    for (long i = 0; i < THREADS; i++)
        if (pthread_create(&threads[i], NULL, run_reader, (void *)i) != 0)
            return 2;
    char line[300];
    unsigned rounds = 0;
    while (fgets(line, sizeof line, stdin)) {
        line[strcspn(line, "\n")] = '\0';
        char *content = strchr(line, ' ');
        if (!content)
            return 2;
        *content++ = '\0';
        unsigned before = __atomic_load_n(&g_failures, __ATOMIC_RELAXED);
        snprintf(g_expected, sizeof g_expected, "%s", content);
        g_soon = strcmp(line, "soon") == 0;
        g_round_ns = now_ns();
        __atomic_store_n(&g_round, ++rounds, __ATOMIC_RELEASE);
        struct timespec pause = {0, 100000};
        long long deadline = now_ns() + 20000000000LL; /* a thread stuck in open */
        while (__atomic_load_n(&g_acks, __ATOMIC_ACQUIRE) < rounds * THREADS) {
            if (now_ns() > deadline) {
                printf("timeout\n");
                return 1;
            }
            nanosleep(&pause, NULL);
        }
        printf("%s\n", __atomic_load_n(&g_failures, __ATOMIC_RELAXED) == before ? "ok" : "fail");
        fflush(stdout);
    }
    __atomic_store_n(&g_stop, 1, __ATOMIC_RELEASE);
    for (int i = 0; i < THREADS; i++)
        pthread_join(threads[i], NULL);
    printf("rounds=%u failures=%u\ncalls=%lu\n", rounds, g_failures, g_calls);
    return g_failures ? 1 : 0;
}
