/* The reference batch every timing program runs between its timed batches.
 * It runs no kontext code: it scans the environment for an absent name the
 * way libc's getenv does, and stats a file. Its time says how busy the host
 * was; the harness ranks windows of a run by it (see stats.py), never by the
 * timings of the code under test. */

#ifndef PERFBENCH_REFERENCE_H
#define PERFBENCH_REFERENCE_H

#include <string.h>
#include <sys/stat.h>

#define REF_CLASS 0 /* the reference's class code in every samples file */
#define REF_EVERY 4 /* timed batches between two reference batches */
#define REF_SCANS 8
#define REF_STATS 2

extern char **environ;

/* returns 0, or -1 when the file cannot be stat'ed */
static int reference_batch(const char *stat_path) {
    static const char absent[] = "KX_REFERENCE_ABSENT";
    volatile int found = 0;
    struct stat st;
    for (int r = 0; r < REF_SCANS; r++)
        for (char **e = environ; *e; e++)
            if (strncmp(*e, absent, sizeof absent - 1) == 0 && (*e)[sizeof absent - 1] == '=')
                found = 1;
    (void)found;
    for (int r = 0; r < REF_STATS; r++)
        if (stat(stat_path, &st) != 0)
            return -1;
    return 0;
}

#endif
