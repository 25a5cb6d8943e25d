/* getenv(argv[1]) argv[2] times, each call timed with clock_gettime;
 * prints the median ns per call and the last answer. */
#include <stdio.h>
#include <stdlib.h>
#include <time.h>

static long long now_ns(void) {
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (long long)ts.tv_sec * 1000000000LL + ts.tv_nsec;
}

static int by_value(const void *a, const void *b) {
    long long x = *(const long long *)a, y = *(const long long *)b;
    return (x > y) - (x < y);
}

int main(int argc, char **argv) {
    if (argc != 3)
        return 2;
    long n = atol(argv[2]);
    if (n < 1)
        return 2;
    long long *samples = malloc((size_t)n * sizeof *samples);
    if (!samples)
        return 1;
    const char *v = NULL;
    for (long i = 0; i < n; i++) {
        long long t0 = now_ns();
        v = getenv(argv[1]);
        samples[i] = now_ns() - t0;
    }
    qsort(samples, (size_t)n, sizeof *samples, by_value);
    printf("%lld %s\n", samples[n / 2], v ? v : "(unset)");
    free(samples);
    return 0;
}
