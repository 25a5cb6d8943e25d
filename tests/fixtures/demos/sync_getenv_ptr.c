/* One getenv per stdin line, of the name on that line; prints the answer
 * and its address, flushed. */
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

int main(void) {
    char line[256];
    while (fgets(line, sizeof line, stdin)) {
        line[strcspn(line, "\n")] = '\0';
        const char *v = getenv(line);
        printf("%s %p\n", v ? v : "(unset)", (const void *)v);
        fflush(stdout);
    }
    return 0;
}
