/* One read-only open per stdin line, of the path on that line; prints the
 * file the descriptor refers to (its /proc/self/fd link), a tab and the
 * bytes read, each newline written as "\n", on one line, flushed. A failed
 * open prints "(failed)". */
#include <fcntl.h>
#include <stdio.h>
#include <string.h>
#include <unistd.h>

int main(void) {
    char line[4096];
    while (fgets(line, sizeof line, stdin)) {
        line[strcspn(line, "\n")] = '\0';
        int fd = open(line, O_RDONLY);
        if (fd < 0) {
            printf("(failed)\n");
            fflush(stdout);
            continue;
        }
        char link[64], target[4096], buf[256];
        snprintf(link, sizeof link, "/proc/self/fd/%d", fd);
        ssize_t n = readlink(link, target, sizeof target - 1);
        target[n < 0 ? 0 : n] = '\0';
        printf("%s\t", target);
        while ((n = read(fd, buf, sizeof buf)) > 0)
            for (ssize_t i = 0; i < n; i++)
                if (buf[i] == '\n')
                    fputs("\\n", stdout);
                else
                    putchar(buf[i]);
        close(fd);
        putchar('\n');
        fflush(stdout);
    }
    return 0;
}
