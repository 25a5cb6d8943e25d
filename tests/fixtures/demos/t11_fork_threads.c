/* One thread loops getenv("http_proxy") while main forks 200 times; each
 * child makes one getenv call and _exits. A child that inherited the shim's
 * lock held by the looping thread would hang on its call. */
#include <pthread.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/wait.h>
#include <unistd.h>

static volatile int stop = 0;

static void *reader(void *arg) {
    (void)arg;
    while (!stop) {
        const char *v = getenv("http_proxy");
        (void)v;
    }
    return NULL;
}

int main(void) {
    pthread_t thread;
    if (pthread_create(&thread, NULL, reader, NULL) != 0)
        return 2;
    int failed = 0;
    for (int i = 0; i < 200; i++) {
        pid_t pid = fork();
        if (pid < 0)
            return 2;
        if (pid == 0) {
            const char *v = getenv("http_proxy");
            _exit(v ? 0 : 1);
        }
        int status;
        if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) || WEXITSTATUS(status) != 0)
            failed++;
    }
    stop = 1;
    pthread_join(thread, NULL);
    printf("forks=200 failed=%d\n", failed);
    return failed ? 1 : 0;
}
