/* Built with _FORTIFY_SOURCE=2 and open flags read from argv, so open() and
 * open64() compile to calls of __open_2 and __open64_2.
 * Usage: t13_fortified_open PATH FLAGS open|open64. FLAGS is an integer;
 * a read-only open prints the file, any other writes one line to it. */
#undef _FORTIFY_SOURCE
#define _FORTIFY_SOURCE 2
#define _LARGEFILE64_SOURCE
#include <fcntl.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <unistd.h>

int main(int argc, char **argv) {
    if (argc < 4)
        return 2;
    int flags = (int)strtol(argv[2], NULL, 0);
    int fd = strcmp(argv[3], "open64") == 0 ? open64(argv[1], flags) : open(argv[1], flags);
    if (fd < 0) {
        printf("open failed\n");
        return 1;
    }
    if ((flags & O_ACCMODE) == O_RDONLY) {
        char buf[256];
        ssize_t n;
        while ((n = read(fd, buf, sizeof buf)) > 0)
            fwrite(buf, 1, (size_t)n, stdout);
    } else {
        const char *msg = "written through the fortified open\n";
        if (write(fd, msg, strlen(msg)) < 0)
            return 1;
    }
    close(fd);
    return 0;
}
