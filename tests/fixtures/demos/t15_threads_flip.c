/* Reader threads race layer flips. Four threads loop over getenv of a
 * registered name (http_proxy), a set variable (KXT_PLAIN, "plain-value")
 * and an unset one (KXT_MISSING). argv lists every value http_proxy may
 * have. Each stdin line "next VALUE" or "soon VALUE" starts a round, sent
 * after the state changed: with "next" the first read each thread starts
 * after seeing the round must return VALUE, with "soon" each thread must
 * read VALUE within 3 s. After every thread finished the round, main prints
 * "ok" or "fail", flushed. Every read must return one of the argv values
 * (the set variable its value, the unset one NULL), and one value must keep
 * one address in every thread. At EOF main prints "rounds=N failures=F",
 * then "calls=C", the getenv calls all threads made, and exits 1 if F > 0. */
#include <pthread.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

#define THREADS 4
#define MAX_SEEN 16

typedef struct {
    int id;
    const char *seen[MAX_SEEN]; /* distinct answer pointers, never two equal strings */
    int nseen;
    unsigned long calls; /* getenv calls made */
} reader;

static int g_nvalues;
static char **g_values;
static char g_expected[256];
static int g_soon;
static long long g_round_ns;
static unsigned g_round, g_acks, g_stop, g_failures;

static long long now_ns(void) {
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (long long)ts.tv_sec * 1000000000LL + ts.tv_nsec;
}

static void fail(const char *what, int id, const char *got) {
    if (__atomic_add_fetch(&g_failures, 1, __ATOMIC_RELAXED) <= 20)
        fprintf(stderr, "thread %d: %s (got %s)\n", id, what, got ? got : "NULL");
}

/* an answer is a known value, and no other pointer of ours holds the same one */
static void check_answer(reader *me, const char *v) {
    if (!v) {
        fail("registered name unanswered", me->id, v);
        return;
    }
    for (int i = 0; i < me->nseen; i++)
        if (me->seen[i] == v)
            return;
    int known = 0;
    for (int i = 0; i < g_nvalues; i++)
        known |= strcmp(v, g_values[i]) == 0;
    if (!known)
        fail("unknown value", me->id, v);
    for (int i = 0; i < me->nseen; i++)
        if (strcmp(me->seen[i], v) == 0)
            fail("value at a second address", me->id, v);
    if (me->nseen < MAX_SEEN)
        me->seen[me->nseen++] = v;
}

static const char *counted_getenv(reader *me, const char *name) {
    me->calls++;
    return getenv(name);
}

static void *run_reader(void *arg) {
    reader *me = arg;
    unsigned done = 0;
    while (!__atomic_load_n(&g_stop, __ATOMIC_ACQUIRE)) {
        unsigned round = __atomic_load_n(&g_round, __ATOMIC_ACQUIRE);
        const char *v = counted_getenv(me, "http_proxy");
        check_answer(me, v);
        const char *plain = counted_getenv(me, "KXT_PLAIN");
        if (!plain || strcmp(plain, "plain-value") != 0)
            fail("KXT_PLAIN wrong", me->id, plain);
        const char *missing = counted_getenv(me, "KXT_MISSING");
        if (missing)
            fail("KXT_MISSING set", me->id, missing);
        if (round == done)
            continue;
        if (v && strcmp(v, g_expected) == 0) {
            done = round;
        } else if (!g_soon || now_ns() - g_round_ns > 3000000000LL) {
            fail(g_soon ? "new value not seen in 3 s" : "next read missed the flip", me->id, v);
            done = round;
        } else {
            continue;
        }
        __atomic_add_fetch(&g_acks, 1, __ATOMIC_RELEASE);
    }
    return NULL;
}

int main(int argc, char **argv) {
    g_nvalues = argc - 1;
    g_values = argv + 1;
    reader readers[THREADS];
    pthread_t threads[THREADS];
    for (int i = 0; i < THREADS; i++) {
        readers[i].id = i;
        readers[i].nseen = 0;
        readers[i].calls = 0;
        if (pthread_create(&threads[i], NULL, run_reader, &readers[i]) != 0)
            return 2;
    }
    char line[300];
    unsigned rounds = 0;
    while (fgets(line, sizeof line, stdin)) {
        line[strcspn(line, "\n")] = '\0';
        char *value = strchr(line, ' ');
        if (!value)
            return 2;
        *value++ = '\0';
        unsigned before = __atomic_load_n(&g_failures, __ATOMIC_RELAXED);
        snprintf(g_expected, sizeof g_expected, "%s", value);
        g_soon = strcmp(line, "soon") == 0;
        g_round_ns = now_ns();
        __atomic_store_n(&g_round, ++rounds, __ATOMIC_RELEASE);
        struct timespec pause = {0, 100000};
        long long deadline = now_ns() + 20000000000LL; /* a thread stuck in getenv */
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
    /* the same value has the same address in every thread */
    for (int a = 0; a < THREADS; a++)
        for (int b = a + 1; b < THREADS; b++)
            for (int i = 0; i < readers[a].nseen; i++)
                for (int j = 0; j < readers[b].nseen; j++)
                    if (strcmp(readers[a].seen[i], readers[b].seen[j]) == 0 &&
                        readers[a].seen[i] != readers[b].seen[j])
                        fail("value at another thread's address", b, readers[b].seen[j]);
    unsigned long calls = 0;
    for (int i = 0; i < THREADS; i++)
        calls += readers[i].calls;
    printf("rounds=%u failures=%u\ncalls=%lu\n", rounds, g_failures, calls);
    return g_failures ? 1 : 0;
}
