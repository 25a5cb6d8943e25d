/* errno across successful calls: each is made with errno = 0 and the value
 * errno holds afterwards is printed, as libc leaves it. argv[1] is a
 * readable file. The first getenv is the one that sets the shim up. */
#define _GNU_SOURCE
#include <errno.h>
#include <fcntl.h>
#include <stdio.h>
#include <stdlib.h>
#include <unistd.h>

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
    errno = 0;
    int fd = open(argv[1], O_RDONLY);
    report("open", fd >= 0);
    if (fd >= 0)
        close(fd);
    errno = 0;
    FILE *f = fopen(argv[1], "r");
    report("fopen", f != NULL);
    if (f)
        fclose(f);
    return 0;
}
