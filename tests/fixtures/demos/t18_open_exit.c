/* Prints argv[1] as read through open() and leaves through _exit(), so no
 * exit handler or destructor of any library runs. */
#include <fcntl.h>
#include <unistd.h>

int main(int argc, char **argv) {
    if (argc < 2)
        return 2;
    int fd = open(argv[1], O_RDONLY);
    if (fd < 0)
        _exit(1);
    char buf[256];
    ssize_t n;
    while ((n = read(fd, buf, sizeof buf)) > 0)
        if (write(1, buf, (size_t)n) != n)
            _exit(1);
    _exit(0);
}
