#include <errno.h>
#include <fcntl.h>
#include <stdio.h>
#include <unistd.h>

int main(int argc, char **argv) {
    if (argc < 2)
        return 2;
    int fd = open(argv[1], O_RDONLY);
    if (fd < 0) {
        printf("open failed: errno %d\n", errno);
        return 1;
    }
    char buf[256];
    ssize_t n;
    while ((n = read(fd, buf, sizeof buf)) > 0)
        fwrite(buf, 1, (size_t)n, stdout);
    close(fd);
    return 0;
}
