/* One getenv("http_proxy") per stdin line; prints the answer, flushed.
 * The line "exit" ends the process with _exit(0) instead, so no exit
 * handler or destructor runs. */
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <unistd.h>

int main(void) {
    char line[256];
    while (fgets(line, sizeof line, stdin)) {
        if (strcmp(line, "exit\n") == 0)
            _exit(0);
        const char *v = getenv("http_proxy");
        printf("%s\n", v ? v : "(unset)");
        fflush(stdout);
    }
    return 0;
}
