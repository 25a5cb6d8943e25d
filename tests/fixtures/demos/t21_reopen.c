/* A deleted shadow file, through one export.
 * Usage: t21_reopen PATH open|open64|__open_2|__open64_2|fopen|fopen64.
 * Opens PATH read-only through the named export, called directly (as a
 * _FORTIFY_SOURCE build reaches __open_2 and __open64_2), and prints what
 * it read. Then it unlinks the file the descriptor names in /proc/self/fd
 * when that is not PATH itself, opens PATH again the same way with errno =
 * 0, and prints what it read and "errno=N", errno as the open left it.
 * Exits 1 when an open fails. */
#define _GNU_SOURCE
#define _LARGEFILE64_SOURCE
#include <errno.h>
#include <fcntl.h>
#include <limits.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <unistd.h>

int __open_2(const char *path, int flags);
int __open64_2(const char *path, int flags);

static int g_errno; /* errno right after the last open */

/* a descriptor of path opened read-only through entry, or -1 */
static int open_with(const char *entry, const char *path) {
    int fd = -1;
    FILE *f = NULL;
    if (strcmp(entry, "open") == 0)
        fd = open(path, O_RDONLY);
    else if (strcmp(entry, "open64") == 0)
        fd = open64(path, O_RDONLY);
    else if (strcmp(entry, "__open_2") == 0)
        fd = __open_2(path, O_RDONLY);
    else if (strcmp(entry, "__open64_2") == 0)
        fd = __open64_2(path, O_RDONLY);
    else
        f = strcmp(entry, "fopen") == 0 ? fopen(path, "r") : fopen64(path, "r");
    g_errno = errno;
    if (f) {
        fd = dup(fileno(f));
        fclose(f);
    }
    return fd;
}

static void print_file(int fd) {
    char buf[256];
    ssize_t n;
    while ((n = read(fd, buf, sizeof buf)) > 0)
        fwrite(buf, 1, (size_t)n, stdout);
}

int main(int argc, char **argv) {
    if (argc < 3)
        return 2;
    int fd = open_with(argv[2], argv[1]);
    if (fd < 0)
        return 1;
    print_file(fd);
    char link[64], opened[PATH_MAX], real[PATH_MAX];
    snprintf(link, sizeof link, "/proc/self/fd/%d", fd);
    ssize_t n = readlink(link, opened, sizeof opened - 1);
    close(fd);
    if (n < 0 || !realpath(argv[1], real))
        return 1;
    opened[n] = '\0';
    if (strcmp(opened, real) != 0 && unlink(opened) != 0)
        return 1;
    errno = 0;
    fd = open_with(argv[2], argv[1]);
    if (fd < 0)
        return 1;
    print_file(fd);
    printf("errno=%d\n", g_errno);
    close(fd);
    return 0;
}
