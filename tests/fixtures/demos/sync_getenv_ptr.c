/* One getenv("http_proxy") per stdin line; prints the answer and its
 * address, flushed. */
#include <stdio.h>
#include <stdlib.h>

int main(void) {
    char line[256];
    while (fgets(line, sizeof line, stdin)) {
        const char *v = getenv("http_proxy");
        printf("%s %p\n", v ? v : "(unset)", (const void *)v);
        fflush(stdout);
    }
    return 0;
}
