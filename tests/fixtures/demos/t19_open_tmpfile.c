/* open and open64 of argv[1], a directory, with O_TMPFILE | O_RDWR and mode
 * 0640 under umask 022; prints the permission bits each unnamed file got,
 * in octal. glibc passes the mode whenever O_TMPFILE is set, as for O_CREAT. */
#define _GNU_SOURCE
#define _LARGEFILE64_SOURCE
#include <fcntl.h>
#include <stdio.h>
#include <sys/stat.h>
#include <unistd.h>

int main(int argc, char **argv) {
    if (argc < 2)
        return 2;
    umask(022);
    int fds[2] = {open(argv[1], O_TMPFILE | O_RDWR, 0640),
                  open64(argv[1], O_TMPFILE | O_RDWR, 0640)};
    for (int i = 0; i < 2; i++) {
        struct stat st;
        if (fds[i] < 0 || fstat(fds[i], &st) != 0) {
            printf("open failed\n");
            return 1;
        }
        printf("%s %o\n", i ? "open64" : "open", (unsigned)(st.st_mode & 07777));
        close(fds[i]);
    }
    return 0;
}
