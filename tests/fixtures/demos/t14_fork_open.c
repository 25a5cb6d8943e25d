/* Prints argv[1] as read through open() before and after a child that
 * opens it too and leaves through exit(), so the child's destructors run.
 * argv[2] picks the child:
 *   fork    fork(); the parent waits for it
 *   clone   a raw clone system call, which runs no fork handlers; waited for
 *   orphan  fork(); the parent exits at once and the child prints the file
 *           after that, in place of the parent's second print */
#include <fcntl.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

static void cat(const char *path) {
    int fd = open(path, O_RDONLY);
    if (fd < 0) {
        printf("open failed\n");
        return;
    }
    char buf[256];
    ssize_t n;
    while ((n = read(fd, buf, sizeof buf)) > 0)
        fwrite(buf, 1, (size_t)n, stdout);
    close(fd);
    fflush(stdout);
}

int main(int argc, char **argv) {
    if (argc < 3)
        return 2;
    int orphan = strcmp(argv[2], "orphan") == 0;
    cat(argv[1]);
    pid_t parent = getpid();
    pid_t pid = strcmp(argv[2], "clone") == 0 ? (pid_t)syscall(SYS_clone, SIGCHLD, 0, 0, 0, 0)
                                              : fork();
    if (pid < 0)
        return 2;
    if (pid == 0) {
        if (orphan) {
            for (int i = 0; i < 10000 && getppid() == parent; i++)
                usleep(1000);
            cat(argv[1]);
        } else {
            int fd = open(argv[1], O_RDONLY);
            if (fd >= 0)
                close(fd);
        }
        exit(0);
    }
    if (orphan)
        return 0;
    int status;
    if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) || WEXITSTATUS(status) != 0)
        return 1;
    cat(argv[1]);
    return 0;
}
