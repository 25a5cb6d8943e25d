/* errno across successful calls: each is made with errno = 0 and the value
 * errno holds afterwards is printed, as libc leaves it. argv[1] is a
 * readable file, opened through every open and fopen export; __open_2 and
 * __open64_2 are called directly, as a _FORTIFY_SOURCE build reaches them.
 * The first getenv is the one that sets the shim up. */
#define _GNU_SOURCE
#define _LARGEFILE64_SOURCE
#include <errno.h>
#include <fcntl.h>
#include <stdio.h>
#include <stdlib.h>
#include <unistd.h>

int __open_2(const char *path, int flags);
int __open64_2(const char *path, int flags);

static void report(const char *call, int ok) {
    int saved = errno;
    printf("%s ok=%d errno=%d\n", call, ok, saved);
}

int main(int argc, char **argv) {
    if (argc < 2)
        return 2;
    errno = 0;
    getenv("KX_SWITCH");
    report("getenv", 1);
    errno = 0;
    const char *proxy = getenv("http_proxy");
    report("getenv-registered", proxy != NULL);
    errno = 0;
    secure_getenv("http_proxy");
    report("secure_getenv", 1);
    int fds[4];
    errno = 0;
    fds[0] = open(argv[1], O_RDONLY);
    report("open", fds[0] >= 0);
    errno = 0;
    fds[1] = open64(argv[1], O_RDONLY);
    report("open64", fds[1] >= 0);
    errno = 0;
    fds[2] = __open_2(argv[1], O_RDONLY);
    report("__open_2", fds[2] >= 0);
    errno = 0;
    fds[3] = __open64_2(argv[1], O_RDONLY);
    report("__open64_2", fds[3] >= 0);
    for (int i = 0; i < 4; i++)
        if (fds[i] >= 0)
            close(fds[i]);
    errno = 0;
    FILE *f = fopen(argv[1], "r");
    report("fopen", f != NULL);
    if (f)
        fclose(f);
    errno = 0;
    f = fopen64(argv[1], "r");
    report("fopen64", f != NULL);
    if (f)
        fclose(f);
    return 0;
}
